//! A line-based text format for traces, with a lenient, recovering parser.
//!
//! The real DroidRacer logs traces from the instrumented VM and analyses them
//! offline; this module plays the same role, letting traces be written to
//! disk by the simulator and read back by the detector or the replay
//! database. The format is deliberately simple: one declaration or operation
//! per line.
//!
//! ```text
//! droidracer-trace v1
//! thread t0 main initial "main"
//! task p0 "LAUNCH_ACTIVITY"
//! op post t0 p0 t0 delay=100 event=e0
//! ```
//!
//! Offline trace files are routinely truncated or corrupted, so ingestion
//! comes in two strictness levels:
//!
//! * [`from_text`] — strict: the first malformed line is a hard
//!   [`ParseTraceError`]. Used for committed regression corpora, where a
//!   corrupt file should fail loudly.
//! * [`from_text_lenient`] — recovering: malformed lines, truncated tails
//!   and repairable semantic inconsistencies (dangling joins, unbalanced
//!   locks at EOF, infeasible task bodies) become structured
//!   [`Diagnostic`]s carrying byte/line spans and the [`Repair`] applied,
//!   and parsing continues. Only inputs with no consistent prefix at all —
//!   a missing header — are hard errors. The returned trace always passes
//!   [`validate`](crate::validate).

use std::error::Error;
use std::fmt::{self, Write as _};

use crate::ids::{EventId, FieldId, LockId, MemLoc, ObjectId, TaskId, ThreadId, ThreadKind};
use crate::names::Names;
use crate::op::{Op, OpKind, PostKind};
use crate::recover::repair;
use crate::trace::Trace;

pub(crate) const HEADER: &str = "droidracer-trace v1";

/// An error produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseTraceError {}

/// The recovery action the lenient parser applied for one [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// The offending line or operation was dropped.
    SkipOp,
    /// A missing closing operation (`threadexit`, `end`, `release`) was
    /// synthesized to restore consistency.
    SynthesizeClose,
    /// An infeasible task execution was dropped wholesale: its `begin`, its
    /// body and its matching `end`.
    TruncateTask,
}

impl fmt::Display for Repair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Repair::SkipOp => write!(f, "skip-op"),
            Repair::SynthesizeClose => write!(f, "synthesize-close"),
            Repair::TruncateTask => write!(f, "truncate-task"),
        }
    }
}

/// One problem the lenient parser diagnosed and repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based line number (one past the last line for EOF repairs).
    pub line: usize,
    /// Byte span `[start, end)` of the offending text; empty at EOF.
    pub span: (usize, usize),
    /// What was wrong.
    pub message: String,
    /// The repair applied.
    pub repair: Repair,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {} [{}]", self.line, self.message, self.repair)
    }
}

/// Appends `s` to `out` as a quoted name: `"` and `\` escaped, newlines
/// as `\n`.
fn write_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn unquote(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Serializes `trace` to the text format.
pub fn to_text(trace: &Trace) -> String {
    // An `op` line averages about 21 bytes with its newline.
    let mut out = String::with_capacity(HEADER.len() + 1 + 24 * trace.len());
    // invariant: `fmt::Write` for `String` never fails.
    write_text(&mut out, trace).expect("writing to a String cannot fail");
    out
}

fn write_text(out: &mut String, trace: &Trace) -> fmt::Result {
    out.push_str(HEADER);
    out.push('\n');
    let names = trace.names();
    for (id, decl) in names.threads() {
        let initial = if decl.initial { " initial" } else { "" };
        write!(out, "thread {id} {}{initial} ", decl.kind)?;
        write_quoted(out, &decl.name);
        out.push('\n');
    }
    for i in 0..names.task_count() {
        let id = TaskId(i as u32);
        write_decl(out, "task", id, &names.task_name(id))?;
    }
    for i in 0..names.event_count() {
        let id = EventId(i as u32);
        write_decl(out, "event", id, &names.event_name(id))?;
    }
    // Locks, objects and fields have no dedicated count accessors beyond
    // fields; emit the ones actually used plus named declarations via probing
    // is fragile, so we emit every id below the max referenced by an op.
    let (mut max_lock, mut max_obj, mut max_field) = (0usize, 0usize, 0usize);
    for op in trace.ops() {
        match op.kind {
            OpKind::Acquire { lock } | OpKind::Release { lock } => {
                max_lock = max_lock.max(lock.index() + 1)
            }
            OpKind::Read { loc } | OpKind::Write { loc } => {
                max_obj = max_obj.max(loc.object.index() + 1);
                max_field = max_field.max(loc.field.index() + 1);
            }
            _ => {}
        }
    }
    max_field = max_field.max(names.field_count());
    for i in 0..max_lock {
        let id = LockId(i as u32);
        write_decl(out, "lock", id, &names.lock_name(id))?;
    }
    for i in 0..max_obj {
        let id = ObjectId(i as u32);
        write_decl(out, "object", id, &names.object_name(id))?;
    }
    for i in 0..max_field {
        let id = FieldId(i as u32);
        write_decl(out, "field", id, &names.field_name(id))?;
    }
    for op in trace.ops() {
        out.push_str("op ");
        write_op(out, op)?;
        out.push('\n');
    }
    Ok(())
}

/// Appends one `keyword id "name"` declaration line.
fn write_decl(out: &mut String, keyword: &str, id: impl fmt::Display, name: &str) -> fmt::Result {
    write!(out, "{keyword} {id} ")?;
    write_quoted(out, name);
    out.push('\n');
    Ok(())
}

/// Appends `op` in `op`-line form, without the `op ` keyword.
fn write_op(out: &mut String, op: &Op) -> fmt::Result {
    let t = op.thread;
    match op.kind {
        OpKind::ThreadInit => write!(out, "threadinit {t}"),
        OpKind::ThreadExit => write!(out, "threadexit {t}"),
        OpKind::Fork { child } => write!(out, "fork {t} {child}"),
        OpKind::Join { child } => write!(out, "join {t} {child}"),
        OpKind::AttachQ => write!(out, "attachQ {t}"),
        OpKind::LoopOnQ => write!(out, "loopOnQ {t}"),
        OpKind::Post {
            task,
            target,
            kind,
            event,
        } => {
            write!(out, "post {t} {task} {target}")?;
            match kind {
                PostKind::Plain => {}
                PostKind::Delayed(d) => write!(out, " delay={d}")?,
                PostKind::Front => out.push_str(" front"),
            }
            if let Some(e) = event {
                write!(out, " event={e}")?;
            }
            Ok(())
        }
        OpKind::Begin { task } => write!(out, "begin {t} {task}"),
        OpKind::End { task } => write!(out, "end {t} {task}"),
        OpKind::Cancel { task } => write!(out, "cancel {t} {task}"),
        OpKind::Acquire { lock } => write!(out, "acquire {t} {lock}"),
        OpKind::Release { lock } => write!(out, "release {t} {lock}"),
        OpKind::Read { loc } => write!(out, "read {t} {}.{}", loc.object, loc.field),
        OpKind::Write { loc } => write!(out, "write {t} {}.{}", loc.object, loc.field),
        OpKind::Enable { task } => write!(out, "enable {t} {task}"),
    }
}

fn parse_id(tok: &str, prefix: char) -> Result<u32, String> {
    tok.strip_prefix(prefix)
        .and_then(|rest| rest.parse().ok())
        .ok_or_else(|| format!("expected `{prefix}<n>` id, got `{tok}`"))
}

/// How the cursor treats each byte value.
#[derive(Clone, Copy)]
enum Class {
    /// ASCII that is neither whitespace nor `"`, or a continuation byte
    /// inside a multi-byte char: part of a token.
    Token,
    /// ASCII whitespace as `char::is_whitespace` sees it, less `\n`:
    /// space, `\t`, `\x0B`, `\x0C` and `\r`. (`u8::is_ascii_whitespace`
    /// leaves out `\x0B`.)
    Space,
    /// `\n`, which ends a line.
    Newline,
    /// `"`, which ends a line's head.
    Quote,
    /// The lead byte of a multi-byte char, which may be whitespace.
    Lead,
}

static CLASS: [Class; 256] = {
    let mut table = [Class::Token; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            b'\n' => Class::Newline,
            b' ' | b'\t'..=b'\r' => Class::Space,
            b'"' => Class::Quote,
            0xC0..=0xFF => Class::Lead,
            _ => Class::Token,
        };
        b += 1;
    }
    table
};

/// A one-pass cursor over trace text. It yields the tokens of the current
/// line's head — the text before the line's first `"`, where a quoted
/// name begins — then steps to the next line, so each byte is looked at
/// about once.
///
/// Tokens split exactly as `str::split_whitespace` splits them, by
/// `char::is_whitespace`. ASCII bytes are classified by table lookup and
/// only a multi-byte char is decoded, so `\x0B`, U+0085, U+00A0 and
/// U+2003 separate tokens as well as space and tab do.
pub(crate) struct Cursor<'a> {
    text: &'a str,
    /// Start of the current line.
    start: usize,
    /// Scan position within the current line.
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Cursor {
            text,
            start: 0,
            pos: 0,
        }
    }

    /// Whether every line has been stepped past.
    pub(crate) fn at_end(&self) -> bool {
        self.start == self.text.len()
    }

    /// Byte offset of the current line's start.
    pub(crate) fn offset(&self) -> usize {
        self.start
    }

    /// The class of the byte at `i`, `None` past the end of the text.
    fn class(&self, i: usize) -> Option<Class> {
        self.text.as_bytes().get(i).map(|&b| CLASS[usize::from(b)])
    }

    /// The byte length of the char at the lead byte `i` if it is
    /// whitespace.
    fn lead_space(&self, i: usize) -> Option<usize> {
        let c = self.text[i..].chars().next()?;
        c.is_whitespace().then(|| c.len_utf8())
    }

    /// The next token of the current line's head, `None` once it is
    /// exhausted.
    fn token(&mut self) -> Option<&'a str> {
        let mut i = self.pos;
        loop {
            match self.class(i) {
                Some(Class::Space) => i += 1,
                Some(Class::Lead) => match self.lead_space(i) {
                    Some(len) => i += len,
                    None => break,
                },
                _ => break,
            }
        }
        let start = i;
        loop {
            match self.class(i) {
                Some(Class::Token) => i += 1,
                Some(Class::Lead) if self.lead_space(i).is_none() => i += 1,
                _ => break,
            }
        }
        self.pos = i;
        (i > start).then(|| &self.text[start..i])
    }

    /// Whether only whitespace is left on the current line. Meaningful
    /// once [`Cursor::token`] has returned `None`.
    fn line_is_spent(&self) -> bool {
        matches!(self.class(self.pos), None | Some(Class::Newline))
    }

    /// Offset of the current line's `\n`, or the end of the text.
    fn line_end(&self) -> usize {
        self.text.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.text.len(), |nl| self.pos + nl)
    }

    /// The unescaped name quoted at the end of the current line.
    fn quoted_name(&self) -> Option<String> {
        let rest = &self.text[self.pos..self.line_end()];
        unquote(rest[rest.find('"')?..].trim_end())
    }

    /// Steps to the next line, returning the byte span of the current
    /// one without its `\n` or `\r\n` terminator.
    pub(crate) fn next_line(&mut self) -> (usize, usize) {
        let (start, nl) = (self.start, self.line_end());
        self.start = (nl + 1).min(self.text.len());
        self.pos = self.start;
        let end = if self.text[start..nl].ends_with('\r') {
            nl - 1
        } else {
            nl
        };
        (start, end)
    }
}

/// Parses the current line of `cur`, which must be past the header, and
/// leaves the cursor on that line.
///
/// Declarations mutate `names`; an `op` line returns its operation; blank
/// lines and `#` comments are skipped. Errors carry only the message; the
/// caller attaches the position.
pub(crate) fn parse_line(cur: &mut Cursor<'_>, names: &mut Names) -> Result<Option<Op>, String> {
    let keyword = match cur.token() {
        Some(k) if k.starts_with('#') => return Ok(None),
        Some(k) => k,
        None if cur.line_is_spent() => return Ok(None),
        // The line opens with its quote.
        None => "",
    };
    match keyword {
        "op" => parse_op(cur).map(Some),
        "thread" => {
            let _id = cur.token().ok_or("missing thread id")?;
            let kind = match cur.token().ok_or("missing thread kind")? {
                "main" => ThreadKind::Main,
                "binder" => ThreadKind::Binder,
                "app" => ThreadKind::App,
                "system" => ThreadKind::System,
                other => return Err(format!("unknown thread kind `{other}`")),
            };
            let initial = match cur.token() {
                Some("initial") => true,
                Some(other) => return Err(format!("unexpected token `{other}`")),
                None => false,
            };
            let name = cur.quoted_name().ok_or("malformed thread name")?;
            names.fresh_thread(name, kind, initial);
            Ok(None)
        }
        "task" | "event" | "lock" | "object" | "field" => {
            let _id = cur.token().ok_or("missing id")?;
            let name = cur.quoted_name().ok_or("malformed name")?;
            match keyword {
                "task" => {
                    names.fresh_task(name);
                }
                "event" => {
                    names.fresh_event(name);
                }
                "lock" => {
                    names.fresh_lock(name);
                }
                "object" => {
                    names.fresh_object(name);
                }
                _ => {
                    names.field(name);
                }
            }
            Ok(None)
        }
        other => Err(format!("unknown keyword `{other}`")),
    }
}

/// Refuses an op that names a thread or task the declarations read so far
/// do not: its own thread, a fork or join child, a post target, or its
/// task. Indexes and graphs keep per-thread and per-task tables indexed by
/// id, so an undeclared id such as `t300000000` would size a table to it.
/// Both callers of [`parse_line`] apply this to the op it returns.
pub(crate) fn refuse_undeclared(op: Option<Op>, names: &Names) -> Result<Option<Op>, String> {
    let Some(op) = op else { return Ok(None) };
    let (other_thread, task) = match op.kind {
        OpKind::Fork { child } | OpKind::Join { child } => (Some(child), None),
        OpKind::Post { task, target, .. } => (Some(target), Some(task)),
        OpKind::Begin { task }
        | OpKind::End { task }
        | OpKind::Cancel { task }
        | OpKind::Enable { task } => (None, Some(task)),
        _ => (None, None),
    };
    for thread in std::iter::once(op.thread).chain(other_thread) {
        if thread.index() >= names.thread_count() {
            return Err(format!("undeclared thread `{thread}`"));
        }
    }
    match task {
        Some(task) if task.index() >= names.task_count() => {
            Err(format!("undeclared task `{task}`"))
        }
        _ => Ok(Some(op)),
    }
}

/// Parses the rest of an `op` line: mnemonic, thread and arguments. Tokens
/// past the arguments are ignored, except that every one after a `post`'s
/// target must be a post attribute.
fn parse_op(cur: &mut Cursor<'_>) -> Result<Op, String> {
    let mnemonic = cur.token().ok_or("missing op mnemonic")?;
    let t = ThreadId(parse_id(cur.token().ok_or("missing thread")?, 't')?);
    let kind = match mnemonic {
        "read" | "write" => {
            let loc_tok = cur.token().ok_or("missing location")?;
            let (obj, field) = loc_tok
                .split_once('.')
                .ok_or_else(|| format!("malformed location `{loc_tok}`"))?;
            let loc = MemLoc::new(
                ObjectId(parse_id(obj, 'o')?),
                FieldId(parse_id(field, 'f')?),
            );
            if mnemonic == "read" {
                OpKind::Read { loc }
            } else {
                OpKind::Write { loc }
            }
        }
        "threadinit" => OpKind::ThreadInit,
        "threadexit" => OpKind::ThreadExit,
        "attachQ" => OpKind::AttachQ,
        "loopOnQ" => OpKind::LoopOnQ,
        "fork" | "join" => {
            let child = ThreadId(parse_id(cur.token().ok_or("missing child thread")?, 't')?);
            if mnemonic == "fork" {
                OpKind::Fork { child }
            } else {
                OpKind::Join { child }
            }
        }
        "begin" | "end" | "cancel" | "enable" => {
            let task = TaskId(parse_id(cur.token().ok_or("missing task")?, 'p')?);
            match mnemonic {
                "begin" => OpKind::Begin { task },
                "end" => OpKind::End { task },
                "cancel" => OpKind::Cancel { task },
                _ => OpKind::Enable { task },
            }
        }
        "acquire" | "release" => {
            let lock = LockId(parse_id(cur.token().ok_or("missing lock")?, 'l')?);
            if mnemonic == "acquire" {
                OpKind::Acquire { lock }
            } else {
                OpKind::Release { lock }
            }
        }
        "post" => {
            let task = TaskId(parse_id(cur.token().ok_or("missing task")?, 'p')?);
            let target = ThreadId(parse_id(cur.token().ok_or("missing target")?, 't')?);
            let mut kind = PostKind::Plain;
            let mut event = None;
            while let Some(extra) = cur.token() {
                if extra == "front" {
                    kind = PostKind::Front;
                } else if let Some(d) = extra.strip_prefix("delay=") {
                    let d = d.parse().map_err(|_| format!("bad delay `{extra}`"))?;
                    kind = PostKind::Delayed(d);
                } else if let Some(e) = extra.strip_prefix("event=") {
                    event = Some(EventId(parse_id(e, 'e')?));
                } else {
                    return Err(format!("unknown post attribute `{extra}`"));
                }
            }
            OpKind::Post {
                task,
                target,
                kind,
                event,
            }
        }
        other => return Err(format!("unknown op `{other}`")),
    };
    Ok(Op::new(t, kind))
}

/// Where an operation's line sits in the source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinePos {
    pub(crate) line: usize,
    pub(crate) span: (usize, usize),
}

/// The result of the syntax pass: every well-formed line applied, every
/// malformed one recorded as a skip diagnostic.
pub(crate) struct SyntaxParse {
    pub(crate) names: Names,
    pub(crate) ops: Vec<Op>,
    /// The position of each of `ops`, kept by lenient parses only.
    pub(crate) at: Vec<LinePos>,
    pub(crate) diags: Vec<Diagnostic>,
    /// Line number one past the last line, for EOF diagnostics.
    pub(crate) eof_line: usize,
    /// Empty span at the end of the input, for EOF diagnostics.
    pub(crate) eof_span: (usize, usize),
}

/// The syntax pass shared by the strict and recovering entry points: one
/// walk over the text with a [`Cursor`].
///
/// A missing header is always a hard error — without it there is no
/// consistent prefix to recover. A strict pass stops at the first
/// malformed line, or op naming an undeclared thread or task; a lenient
/// one records it as a [`Repair::SkipOp`] diagnostic, keeps every op's
/// position, and continues.
pub(crate) fn parse_syntax(text: &str, lenient: bool) -> Result<SyntaxParse, ParseTraceError> {
    let mut cur = Cursor::new(text);
    let first = (!cur.at_end()).then(|| {
        let (start, end) = cur.next_line();
        &text[start..end]
    });
    match first {
        Some(l) if l.trim() == HEADER => {}
        other => {
            return Err(ParseTraceError {
                line: 1,
                message: format!("missing header `{HEADER}`, got {other:?}"),
            })
        }
    }
    let mut names = Names::new();
    // Room for one op per 16 bytes, as nearly every op line is longer, so
    // the op vector is not regrown and copied as it fills.
    let mut ops = Vec::with_capacity(text.len() / 16);
    let (mut at, mut diags) = (Vec::new(), Vec::new());
    let mut line = 1;
    while !cur.at_end() {
        line += 1;
        let result = parse_line(&mut cur, &mut names).and_then(|op| refuse_undeclared(op, &names));
        let span = cur.next_line();
        match result {
            Ok(Some(op)) => {
                ops.push(op);
                if lenient {
                    at.push(LinePos { line, span });
                }
            }
            Ok(None) => {}
            Err(message) if lenient => diags.push(Diagnostic {
                line,
                span,
                message,
                repair: Repair::SkipOp,
            }),
            Err(message) => return Err(ParseTraceError { line, message }),
        }
    }
    Ok(SyntaxParse {
        names,
        ops,
        at,
        diags,
        eof_line: line + 1,
        eof_span: (text.len(), text.len()),
    })
}

/// Parses the text format back into a [`Trace`], strictly.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on malformed input; the error carries the
/// offending line number. Use [`from_text_lenient`] to recover instead.
pub fn from_text(text: &str) -> Result<Trace, ParseTraceError> {
    let parsed = parse_syntax(text, false)?;
    Ok(Trace::from_parts(parsed.names, parsed.ops))
}

/// Parses the text format leniently, recovering from malformed lines and
/// repairable semantic inconsistencies.
///
/// Returns the recovered trace — guaranteed to satisfy the Figure 5
/// semantics checker ([`validate`](crate::validate)) — together with one
/// [`Diagnostic`] per problem found, in source order. A clean input yields
/// an empty diagnostic list and the same trace as [`from_text`].
///
/// # Errors
///
/// Returns [`ParseTraceError`] only when no consistent prefix exists (the
/// header line is missing or mangled).
pub fn from_text_lenient(text: &str) -> Result<(Trace, Vec<Diagnostic>), ParseTraceError> {
    let mut parsed = parse_syntax(text, true)?;
    let trace = repair(
        parsed.names,
        parsed.ops,
        &parsed.at,
        &mut parsed.diags,
        parsed.eof_line,
        parsed.eof_span,
    );
    parsed.diags.sort_by_key(|d| (d.line, d.span.0));
    Ok((trace, parsed.diags))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::ThreadKind;
    use crate::validate::validate;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let binder = b.thread("binder thread", ThreadKind::Binder, true);
        let main = b.thread("main", ThreadKind::Main, true);
        let bg = b.thread("bg", ThreadKind::App, false);
        let launch = b.task("LAUNCH_ACTIVITY");
        let update = b.task("onProgressUpdate");
        let click = b.event("click:playBtn");
        let l = b.lock("mLock");
        let loc = b.loc("DwFileAct-obj", "DwFileAct.isActivityDestroyed");
        b.thread_init(main);
        b.attach_q(main);
        b.loop_on_q(main);
        b.thread_init(binder);
        b.post(binder, launch, main);
        b.begin(main, launch);
        b.write(main, loc);
        b.fork(main, bg);
        b.end(main, launch);
        b.thread_init(bg);
        b.read(bg, loc);
        b.acquire(bg, l);
        b.release(bg, l);
        b.post_with(bg, update, main, PostKind::Delayed(50), Some(click));
        b.thread_exit(bg);
        b.join(main, bg);
        b.begin(main, update);
        b.end(main, update);
        b.finish()
    }

    fn parse_id_reference(tok: &str, prefix: char) -> Result<u32, String> {
        tok.strip_prefix(prefix)
            .and_then(|rest| rest.parse().ok())
            .ok_or_else(|| format!("expected `{prefix}<n>` id, got `{tok}`"))
    }

    /// The `str`-based line parser the byte-level [`parse_line`] replaced,
    /// kept as its specification. Takes a trimmed line that is neither
    /// blank nor a comment.
    fn parse_line_reference(l: &str, names: &mut Names) -> Result<Option<Op>, String> {
        // Quoted names may contain arbitrary whitespace: split the line at
        // the opening quote and tokenize only the head.
        let (head, quoted) = match l.find('"') {
            Some(q) => (&l[..q], &l[q..]),
            None => (l, ""),
        };
        let mut toks = head.split_whitespace();
        let keyword = toks.next().unwrap_or("");
        match keyword {
            "thread" => {
                let _id = toks.next().ok_or("missing thread id")?;
                let kind_tok = toks.next().ok_or("missing thread kind")?;
                let kind = match kind_tok {
                    "main" => ThreadKind::Main,
                    "binder" => ThreadKind::Binder,
                    "app" => ThreadKind::App,
                    "system" => ThreadKind::System,
                    other => return Err(format!("unknown thread kind `{other}`")),
                };
                let initial = match toks.next() {
                    Some("initial") => true,
                    Some(other) => return Err(format!("unexpected token `{other}`")),
                    None => false,
                };
                let name = unquote(quoted.trim_end()).ok_or("malformed thread name")?;
                names.fresh_thread(name, kind, initial);
                Ok(None)
            }
            "task" | "event" | "lock" | "object" | "field" => {
                let _id = toks.next().ok_or("missing id")?;
                let name = unquote(quoted.trim_end()).ok_or("malformed name")?;
                match keyword {
                    "task" => {
                        names.fresh_task(name);
                    }
                    "event" => {
                        names.fresh_event(name);
                    }
                    "lock" => {
                        names.fresh_lock(name);
                    }
                    "object" => {
                        names.fresh_object(name);
                    }
                    "field" => {
                        names.field(name);
                    }
                    _ => unreachable!(),
                }
                Ok(None)
            }
            "op" => {
                let mnemonic = toks.next().ok_or("missing op mnemonic")?;
                let t = ThreadId(parse_id_reference(
                    toks.next().ok_or("missing thread")?,
                    't',
                )?);
                let kind = match mnemonic {
                    "threadinit" => OpKind::ThreadInit,
                    "threadexit" => OpKind::ThreadExit,
                    "attachQ" => OpKind::AttachQ,
                    "loopOnQ" => OpKind::LoopOnQ,
                    "fork" | "join" => {
                        let tok = toks.next().ok_or("missing child thread")?;
                        let child = ThreadId(parse_id_reference(tok, 't')?);
                        if mnemonic == "fork" {
                            OpKind::Fork { child }
                        } else {
                            OpKind::Join { child }
                        }
                    }
                    "begin" | "end" | "cancel" | "enable" => {
                        let tok = toks.next().ok_or("missing task")?;
                        let task = TaskId(parse_id_reference(tok, 'p')?);
                        match mnemonic {
                            "begin" => OpKind::Begin { task },
                            "end" => OpKind::End { task },
                            "cancel" => OpKind::Cancel { task },
                            _ => OpKind::Enable { task },
                        }
                    }
                    "acquire" | "release" => {
                        let tok = toks.next().ok_or("missing lock")?;
                        let lock = LockId(parse_id_reference(tok, 'l')?);
                        if mnemonic == "acquire" {
                            OpKind::Acquire { lock }
                        } else {
                            OpKind::Release { lock }
                        }
                    }
                    "read" | "write" => {
                        let loc_tok = toks.next().ok_or("missing location")?;
                        let (obj, field) = loc_tok
                            .split_once('.')
                            .ok_or_else(|| format!("malformed location `{loc_tok}`"))?;
                        let loc = MemLoc::new(
                            ObjectId(parse_id_reference(obj, 'o')?),
                            FieldId(parse_id_reference(field, 'f')?),
                        );
                        if mnemonic == "read" {
                            OpKind::Read { loc }
                        } else {
                            OpKind::Write { loc }
                        }
                    }
                    "post" => {
                        let tok = toks.next().ok_or("missing task")?;
                        let task = TaskId(parse_id_reference(tok, 'p')?);
                        let tok = toks.next().ok_or("missing target")?;
                        let target = ThreadId(parse_id_reference(tok, 't')?);
                        let mut kind = PostKind::Plain;
                        let mut event = None;
                        for extra in toks.by_ref() {
                            if extra == "front" {
                                kind = PostKind::Front;
                            } else if let Some(d) = extra.strip_prefix("delay=") {
                                let d = d.parse().map_err(|_| format!("bad delay `{extra}`"))?;
                                kind = PostKind::Delayed(d);
                            } else if let Some(e) = extra.strip_prefix("event=") {
                                event = Some(EventId(parse_id_reference(e, 'e')?));
                            } else {
                                return Err(format!("unknown post attribute `{extra}`"));
                            }
                        }
                        OpKind::Post {
                            task,
                            target,
                            kind,
                            event,
                        }
                    }
                    other => return Err(format!("unknown op `{other}`")),
                };
                Ok(Some(Op::new(t, kind)))
            }
            other => Err(format!("unknown keyword `{other}`")),
        }
    }

    /// The reference's view of a whole line: trimmed, and blank lines and
    /// comments skipped the way its syntax pass skipped them.
    fn reference(line: &str, names: &mut Names) -> Result<Option<Op>, String> {
        let l = line.trim();
        if l.is_empty() || l.starts_with('#') {
            return Ok(None);
        }
        parse_line_reference(l, names)
    }

    /// Token separators: mostly spaces, plus ASCII and Unicode whitespace
    /// that `u8::is_ascii_whitespace` does not cover.
    const SEPARATORS: &[&str] = &[
        " ", " ", " ", "  ", "\t", "\x0B", "\x0C", "\r", "\u{A0}", "\u{2003}", "\u{85}", "\u{3000}",
    ];

    /// Tokens a mutation swaps in: signed and overflowing ids, malformed
    /// locations and post attributes, stray keywords, quotes and chars that
    /// look like digits or spaces but are neither.
    const MUTANTS: &[&str] = &[
        "t+1",
        "t4294967295",
        "t4294967296",
        "t18446744073709551616",
        "t",
        "t-1",
        "T1",
        "t1x",
        "t\u{663}",
        "t1\u{200B}",
        "p+2",
        "p99999999999",
        "p18446744073709551617",
        "l+0",
        "o+1.f+2",
        "o1.f4294967296",
        "o18446744073709551616.f1",
        "o1f2",
        "o1.f2.f3",
        ".f1",
        "o1.",
        "front",
        "Front",
        "delay=+7",
        "delay=18446744073709551615",
        "delay=18446744073709551616",
        "delay=99999999999999999999",
        "delay=",
        "delay=-1",
        "event=e+1",
        "event=e4294967296",
        "event=e18446744073709551616",
        "event=x",
        "event=",
        "bogus=1",
        "frobnicate",
        "Read",
        "threadinit",
        "read",
        "post",
        "op",
        "thread",
        "field",
        "initial",
        "main",
        "#",
        "#x",
        "\"",
        "a\"b",
        "\"C.f\"",
        "\"bad\\q\"",
        "\u{E9}",
    ];

    /// Quoted-name tokens for declarations, repeats included.
    const NAMES: &[&str] = &[
        "\"C.f\"",
        "\"C.f\"",
        "\"C.g\"",
        "\"a b\"",
        "\"x\\\"y\\n\"",
        "\"\"",
        "\"bad\\q\"",
        "\"open",
        "bare",
    ];

    /// The tokens of a well-formed `op` line.
    fn arb_op_tokens() -> impl Strategy<Value = Vec<String>> {
        let fields = (0u8..16, 0u32..5, 0u32..5, 0u32..5, any::<u64>(), 0u8..6);
        fields.prop_map(|(m, a, b, c, d, flags)| {
            let (t, task, lock) = (ThreadId(a), TaskId(b), LockId(b));
            let loc = MemLoc::new(ObjectId(b), FieldId(c));
            let kind = match m {
                0 => OpKind::ThreadInit,
                1 => OpKind::ThreadExit,
                2 => OpKind::Fork { child: ThreadId(b) },
                3 => OpKind::Join { child: ThreadId(b) },
                4 => OpKind::AttachQ,
                5 => OpKind::LoopOnQ,
                6 => OpKind::Post {
                    task,
                    target: ThreadId(c),
                    kind: match flags % 3 {
                        0 => PostKind::Plain,
                        1 => PostKind::Delayed(if flags > 3 { d } else { d % 1000 }),
                        _ => PostKind::Front,
                    },
                    event: (flags % 2 == 0).then_some(EventId(c)),
                },
                7 => OpKind::Begin { task },
                8 => OpKind::End { task },
                9 => OpKind::Cancel { task },
                10 => OpKind::Enable { task },
                11 => OpKind::Acquire { lock },
                12 => OpKind::Release { lock },
                13 => OpKind::Read { loc },
                _ => OpKind::Write { loc },
            };
            let mut line = String::from("op ");
            write_op(&mut line, &Op::new(t, kind)).expect("writing to a String cannot fail");
            line.split(' ').map(str::to_owned).collect()
        })
    }

    /// The tokens of a declaration line, its quoted name last.
    fn arb_decl_tokens() -> impl Strategy<Value = Vec<String>> {
        (0u8..6, 0u32..4, 0usize..NAMES.len(), 0u8..6).prop_map(|(k, id, name, kind)| {
            let mut toks = Vec::new();
            if k == 0 {
                toks.push("thread".to_owned());
                toks.push(format!("t{id}"));
                let kinds = ["main", "binder", "app", "system", "daemon", "app"];
                toks.push(kinds[usize::from(kind)].to_owned());
                if kind % 2 == 0 {
                    toks.push("initial".to_owned());
                }
            } else {
                toks.push(["task", "event", "lock", "object", "field"][k as usize - 1].to_owned());
                toks.push(format!("x{id}"));
            }
            toks.push(NAMES[name].to_owned());
            toks
        })
    }

    /// A line built from the tokens of an op, a declaration, a comment or
    /// nothing, then mutated: tokens replaced, inserted or removed, joined
    /// by mixed separators, padded, and perhaps cut by a stray quote.
    fn arb_line() -> impl Strategy<Value = String> {
        let base = prop_oneof![
            arb_op_tokens(),
            arb_op_tokens(),
            arb_decl_tokens(),
            Just(Vec::new()),
            Just(vec!["#".to_owned(), "note".to_owned()]),
        ];
        let edit = (0u8..3, any::<usize>(), 0usize..MUTANTS.len());
        let edits = proptest::collection::vec(edit, 0..3);
        let seps = proptest::collection::vec(0usize..SEPARATORS.len(), 8);
        (base, edits, seps, 0u8..4, 0u8..6, any::<usize>()).prop_map(
            |(mut toks, edits, seps, pad, quote, at)| {
                for (kind, pos, pick) in edits {
                    let tok = MUTANTS[pick].to_owned();
                    match kind {
                        0 if !toks.is_empty() => {
                            let i = pos % toks.len();
                            toks[i] = tok;
                        }
                        1 => toks.insert(pos % (toks.len() + 1), tok),
                        _ if !toks.is_empty() => {
                            toks.remove(pos % toks.len());
                        }
                        _ => {}
                    }
                }
                let sep = |i: usize| SEPARATORS[seps[i % seps.len()]];
                let mut line = String::new();
                if pad & 1 != 0 {
                    line.push_str(sep(7));
                }
                for (i, tok) in toks.iter().enumerate() {
                    if i > 0 {
                        line.push_str(sep(i));
                    }
                    line.push_str(tok);
                }
                if pad & 2 != 0 {
                    line.push_str(sep(6));
                }
                if quote == 0 {
                    let bounds: Vec<usize> = line
                        .char_indices()
                        .map(|(i, _)| i)
                        .chain([line.len()])
                        .collect();
                    line.insert(bounds[at % bounds.len()], '"');
                }
                line
            },
        )
    }

    /// Parses one line on its own.
    fn parse(line: &str, names: &mut Names) -> Result<Option<Op>, String> {
        parse_line(&mut Cursor::new(line), names)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte-level parser agrees with the `str`-based reference on
        /// every mutated line, error text included, and both leave the same
        /// name table behind. The lines are walked as one text, joined by
        /// `\n` or `\r\n`, so the cursor's line boundaries and spans are
        /// checked too.
        #[test]
        fn parse_line_matches_the_reference(
            lines in proptest::collection::vec((arb_line(), any::<bool>()), 1..40),
        ) {
            let mut text = String::new();
            let mut spans = Vec::new();
            for (line, crlf) in &lines {
                spans.push((text.len(), text.len() + line.len()));
                text.push_str(line);
                text.push_str(if *crlf { "\r\n" } else { "\n" });
            }
            let (mut fast, mut slow) = (Names::new(), Names::new());
            let mut cur = Cursor::new(&text);
            for ((line, crlf), (start, end)) in lines.iter().zip(spans) {
                let want = reference(line, &mut slow);
                prop_assert_eq!(parse_line(&mut cur, &mut fast), want, "line {:?}", line);
                // Without a `\r\n` terminator, a line's own last `\r` is
                // taken for one.
                let end = if *crlf || !line.ends_with('\r') { end } else { end - 1 };
                prop_assert_eq!(cur.next_line(), (start, end), "line {:?}", line);
            }
            prop_assert!(cur.at_end());
            prop_assert_eq!(fast, slow);
        }
    }

    #[test]
    fn tricky_lines_parse_as_the_reference_does() {
        let lines = [
            "op read t0 o1.f2",
            "op\x0Bread\u{A0}t0\u{2003}o1.f2\u{85}",
            "\u{3000}op read t0 o1.f2\r",
            "op read t+0 o+1.f+2",
            "op read t4294967295 o1.f2",
            "op read t4294967296 o1.f2",
            "op read t0 o1.f2 trailing tokens",
            "op read t0 \"o1.f2",
            "op post t0 p0 t1 delay=18446744073709551615 event=e2",
            "op post t0 p0 t1 delay=18446744073709551616",
            "op post t0 p0 t1 front \"bogus=1",
            "op post t0 p0 t1 bogus=1",
            "op frobnicate t0",
            "op frobnicate x",
            "field f0 \"C.f\"",
            "field f1 extra \"C.f\"",
            "field f2 \"C.g\" ",
            "thread t0 main initial junk \"m\"",
            "thread t1 app\"bg\"",
            "thread t2 daemon \"d\"",
            "task p0 \"bad\\q\"",
            "\"quoted first\"",
            "#op read t0",
            " \t ",
        ];
        let (mut fast, mut slow) = (Names::new(), Names::new());
        for line in lines {
            assert_eq!(
                parse(line, &mut fast),
                reference(line, &mut slow),
                "line {line:?}"
            );
        }
        assert_eq!(fast, slow);
        assert_eq!(
            fast.field_count(),
            2,
            "a repeated field name is interned once"
        );
        let read = Some(Op::new(
            ThreadId(0),
            OpKind::Read {
                loc: MemLoc::new(ObjectId(1), FieldId(2)),
            },
        ));
        let mut names = Names::new();
        assert_eq!(parse(lines[1], &mut names), Ok(read));
        assert_eq!(parse(lines[3], &mut names), Ok(read));
        assert_eq!(
            parse(lines[5], &mut names),
            Err("expected `t<n>` id, got `t4294967296`".to_owned())
        );
        assert_eq!(
            parse(lines[9], &mut names),
            Err("bad delay `delay=18446744073709551616`".to_owned())
        );
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let trace = sample_trace();
        let text = to_text(&trace);
        let back = from_text(&text).expect("parse back");
        assert_eq!(back.ops(), trace.ops());
        assert_eq!(back.names().thread_name(ThreadId(0)), "binder thread");
        assert_eq!(back.names().task_name(TaskId(1)), "onProgressUpdate");
        assert_eq!(back.names().event_name(EventId(0)), "click:playBtn");
    }

    #[test]
    fn quoting_roundtrips_special_characters() {
        for s in ["plain", "with \"quotes\"", "back\\slash", "new\nline", ""] {
            let mut quoted = String::new();
            write_quoted(&mut quoted, s);
            assert_eq!(unquote(&quoted).as_deref(), Some(s));
        }
    }

    #[test]
    fn missing_header_is_rejected() {
        let err = from_text("garbage\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn unknown_op_is_rejected_with_line_number() {
        let text = format!("{HEADER}\nop frobnicate t0\n");
        let err = from_text(&text).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text =
            format!("{HEADER}\n\n# a comment\nthread t0 main initial \"main\"\nop threadinit t0\n");
        let trace = from_text(&text).expect("parse");
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn bad_post_attribute_is_rejected() {
        let text = format!(
            "{HEADER}\nthread t0 main initial \"m\"\ntask p0 \"a\"\nop post t0 p0 t0 bogus=1\n"
        );
        assert!(from_text(&text).is_err());
    }

    #[test]
    fn lenient_parse_of_clean_text_matches_strict() {
        let trace = sample_trace();
        let text = to_text(&trace);
        let (back, diags) = from_text_lenient(&text).expect("header intact");
        assert_eq!(diags, Vec::new());
        assert_eq!(back.ops(), trace.ops());
        assert_eq!(back.names(), trace.names());
    }

    #[test]
    fn lenient_parse_missing_header_is_still_fatal() {
        assert!(from_text_lenient("garbage\n").is_err());
        assert!(from_text_lenient("").is_err());
    }

    #[test]
    fn lenient_parse_skips_unknown_ops_with_spans() {
        let text = format!(
            "{HEADER}\nthread t0 main initial \"main\"\nop threadinit t0\nop frobnicate t0\nop attachQ t0\n"
        );
        let (trace, diags) = from_text_lenient(&text).expect("recovers");
        assert_eq!(trace.len(), 2, "good ops kept around the bad line");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 4);
        assert_eq!(diags[0].repair, Repair::SkipOp);
        assert_eq!(&text[diags[0].span.0..diags[0].span.1], "op frobnicate t0");
        assert!(diags[0].message.contains("frobnicate"));
    }

    #[test]
    fn lenient_parse_repairs_dangling_join() {
        // bg never logs its exit (truncated writer), but main joins it.
        let text = format!(
            "{HEADER}\nthread t0 main initial \"main\"\nthread t1 app \"bg\"\n\
             op threadinit t0\nop fork t0 t1\nop threadinit t1\nop join t0 t1\n"
        );
        let (trace, diags) = from_text_lenient(&text).expect("recovers");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].repair, Repair::SynthesizeClose);
        assert_eq!(validate(&trace), Ok(()));
        // threadexit t1 synthesized before the join.
        assert!(matches!(trace.ops()[3].kind, OpKind::ThreadExit));
        assert_eq!(trace.ops()[3].thread, ThreadId(1));
        assert_eq!(trace.len(), 5);
    }

    #[test]
    fn lenient_parse_closes_unbalanced_locks_at_eof() {
        let text = format!(
            "{HEADER}\nthread t0 main initial \"main\"\nlock l0 \"m\"\n\
             op threadinit t0\nop acquire t0 l0\nop acquire t0 l0\n"
        );
        let (trace, diags) = from_text_lenient(&text).expect("recovers");
        // Two releases synthesized (re-entrant count 2).
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.repair == Repair::SynthesizeClose));
        assert!(diags
            .iter()
            .all(|d| d.line == 7 && d.span == (text.len(), text.len())));
        assert_eq!(trace.len(), 5);
        assert_eq!(validate(&trace), Ok(()));
    }

    #[test]
    fn lenient_parse_truncates_infeasible_task_bodies() {
        // Task p0 is begun without ever being posted: drop begin..end.
        let text = format!(
            "{HEADER}\nthread t0 main initial \"main\"\ntask p0 \"A\"\nobject o0 \"o\"\nfield f0 \"C.f\"\n\
             op threadinit t0\nop attachQ t0\nop loopOnQ t0\n\
             op begin t0 p0\nop write t0 o0.f0\nop end t0 p0\nop write t0 o0.f0\n"
        );
        let (trace, diags) = from_text_lenient(&text).expect("recovers");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].repair, Repair::TruncateTask);
        assert_eq!(diags[0].line, 9);
        // init, attachQ, loopOnQ, and the trailing write survive.
        assert_eq!(trace.len(), 4);
        assert_eq!(validate(&trace), Ok(()));
    }

    #[test]
    fn lenient_parse_ends_executing_tasks_at_eof() {
        // Truncated tail: the begin's end was never written.
        let text = format!(
            "{HEADER}\nthread t0 main initial \"main\"\ntask p0 \"A\"\n\
             op threadinit t0\nop attachQ t0\nop loopOnQ t0\nop post t0 p0 t0\nop begin t0 p0\n"
        );
        let (trace, diags) = from_text_lenient(&text).expect("recovers");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].repair, Repair::SynthesizeClose);
        assert!(matches!(
            trace.ops().last().map(|o| o.kind),
            Some(OpKind::End { .. })
        ));
        assert_eq!(validate(&trace), Ok(()));
    }

    #[test]
    fn lenient_parse_drops_ops_on_undeclared_threads() {
        let text = format!(
            "{HEADER}\nthread t0 main initial \"main\"\nop threadinit t0\nop threadinit t9\nop read t9 o0.f0\n"
        );
        let (trace, diags) = from_text_lenient(&text).expect("recovers");
        assert_eq!(trace.len(), 1);
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.repair == Repair::SkipOp));
        assert_eq!(validate(&trace), Ok(()));
    }

    #[test]
    fn diagnostics_render_position_and_repair() {
        let text = format!("{HEADER}\nop frobnicate t0\n");
        let (_, diags) = from_text_lenient(&text).expect("recovers");
        let rendered = diags[0].to_string();
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("skip-op"), "{rendered}");
    }
}
