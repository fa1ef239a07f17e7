//! A blocking client for the analysis daemon, usable anywhere an
//! [`AnalysisService`] is expected.
//!
//! The client frames requests, unframes responses, and converts between
//! the wire's text encodings and the `core` types. One client owns one
//! tenant identity and (at most) one live connection; requests on it are
//! strictly sequential (the protocol has no pipelining).
//!
//! Resilience is opt-in via [`RetryPolicy`]: with a policy attached the
//! client reconnects and resubmits on transport failures (torn frames,
//! resets, timeouts) and backs off on [`Response::Overloaded`], using
//! seeded exponential backoff with jitter so every retry schedule is
//! replayable. Resubmission is always safe — jobs are keyed server-side
//! by content digest, so a retry after a lost response is answered from
//! the cache instead of re-running the analysis.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use droidracer_core::{AnalysisService, JobReport, JobSpec};

use crate::protocol::{read_frame, write_frame, Conn, Request, RequestRef, Response};

/// Where the client (re)connects to.
#[derive(Debug, Clone)]
enum Addr {
    Tcp(String),
    Unix(PathBuf),
}

/// How aggressively the client retries transport failures and overload
/// shedding. All delays are deterministic given `seed` — replaying a
/// failure replays the exact backoff schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First backoff; doubles per retry (before jitter).
    pub base_backoff_ms: u64,
    /// Cap on any single backoff sleep.
    pub max_backoff_ms: u64,
    /// Overall wall-clock budget across all attempts of one operation;
    /// `None` bounds only by `max_retries`.
    pub deadline_ms: Option<u64>,
    /// TCP connect timeout; `None` uses the OS default.
    pub connect_timeout_ms: Option<u64>,
    /// Per-read/per-write socket timeout; `None` blocks forever.
    pub io_timeout_ms: Option<u64>,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retries, no timeouts: every failure surfaces immediately. This
    /// is the default — resilience is opt-in.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            deadline_ms: None,
            connect_timeout_ms: None,
            io_timeout_ms: None,
            seed: 0,
        }
    }

    /// A sensible production policy: 3 retries, 25 ms base backoff capped
    /// at 1 s, 5 s connect and 30 s I/O timeouts.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_ms: 25,
            max_backoff_ms: 1_000,
            deadline_ms: None,
            connect_timeout_ms: Some(5_000),
            io_timeout_ms: Some(30_000),
            seed: 0x5eed_cafe,
        }
    }

    /// The jittered backoff before retry number `attempt` (1-based):
    /// exponential in `attempt`, capped, then scaled into the upper half
    /// of the window by `jitter` (an arbitrary 64-bit random value).
    fn backoff(&self, attempt: u32, jitter: u64) -> Duration {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.max_backoff_ms.max(self.base_backoff_ms));
        // Jitter into [exp/2, exp] so synchronized clients desynchronize.
        let half = exp / 2;
        Duration::from_millis(half + jitter % (exp - half + 1).max(1))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Lifetime counters for one [`Client`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Attempts retried (reconnects after transport failure + overload
    /// backoffs). 0 on a healthy path.
    pub retries: u64,
    /// Operations abandoned with the retry budget exhausted.
    pub gave_up: u64,
}

/// A connected client bound to one tenant.
pub struct Client {
    conn: Option<Box<dyn Conn>>,
    addr: Addr,
    tenant: String,
    policy: RetryPolicy,
    rng: u64,
    stats: ClientStats,
}

/// The server answered a job request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// The job ran (or was answered from cache).
    Done {
        /// Whether the report came from the content-addressed cache.
        cache_hit: bool,
        /// The report.
        report: JobReport,
    },
    /// The server refused the request before running it.
    Rejected {
        /// Why.
        reason: String,
    },
    /// The shard queue was full and the retry budget (if any) ran out
    /// backing off. Resubmitting later is always safe.
    Overloaded {
        /// The server's final backoff hint.
        retry_after_ms: u64,
    },
}

impl Submission {
    /// The report of a completed job, or `None` if rejected/shed.
    pub fn report(&self) -> Option<&JobReport> {
        match self {
            Submission::Done { report, .. } => Some(report),
            Submission::Rejected { .. } | Submission::Overloaded { .. } => None,
        }
    }

    /// Whether the submission was answered from the cache.
    pub fn cache_hit(&self) -> bool {
        matches!(
            self,
            Submission::Done {
                cache_hit: true,
                ..
            }
        )
    }
}

/// Whether a transport error is worth a reconnect-and-resubmit: anything
/// that smells like the connection (not the payload) failed. Decode errors
/// (`InvalidData`) are *not* retried — a server speaking garbage is a bug,
/// and retrying would mask it.
fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

impl Client {
    /// Connects over TCP, acting as `tenant`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_tcp(addr: &str, tenant: impl Into<String>) -> io::Result<Client> {
        let mut client = Client {
            conn: None,
            addr: Addr::Tcp(addr.to_owned()),
            tenant: tenant.into(),
            policy: RetryPolicy::none(),
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: ClientStats::default(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Connects over a Unix socket, acting as `tenant`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_unix(path: &Path, tenant: impl Into<String>) -> io::Result<Client> {
        let mut client = Client {
            conn: None,
            addr: Addr::Unix(path.to_owned()),
            tenant: tenant.into(),
            policy: RetryPolicy::none(),
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: ClientStats::default(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// A TCP client that does not dial until the first operation, so the
    /// initial connect runs *inside* the retry loop: with a policy
    /// attached, a server that is briefly down or still restarting costs
    /// backoff, not an immediate failure.
    pub fn lazy_tcp(addr: &str, tenant: impl Into<String>) -> Client {
        Client {
            conn: None,
            addr: Addr::Tcp(addr.to_owned()),
            tenant: tenant.into(),
            policy: RetryPolicy::none(),
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: ClientStats::default(),
        }
    }

    /// [`Client::lazy_tcp`] over a Unix socket.
    pub fn lazy_unix(path: &Path, tenant: impl Into<String>) -> Client {
        Client {
            conn: None,
            addr: Addr::Unix(path.to_owned()),
            tenant: tenant.into(),
            policy: RetryPolicy::none(),
            rng: 0x9e37_79b9_7f4a_7c15,
            stats: ClientStats::default(),
        }
    }

    /// Attaches a retry policy (builder-style). Applies the policy's I/O
    /// timeout to the already-open connection.
    ///
    /// # Errors
    ///
    /// Propagates `setsockopt` failures.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> io::Result<Self> {
        self.rng = policy.seed | 1;
        if let Some(conn) = &self.conn {
            conn.configure(policy.io_timeout_ms.map(Duration::from_millis))?;
        }
        self.policy = policy;
        Ok(self)
    }

    /// Retry/abandon counters accumulated by this client.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The next jitter value (xorshift64*; never zero-locked because the
    /// state is seeded odd).
    fn jitter(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Drops any existing connection and dials a fresh one, applying the
    /// policy's connect and I/O timeouts (and `TCP_NODELAY` on TCP, so
    /// reconnects get it too).
    fn reconnect(&mut self) -> io::Result<()> {
        self.conn = None;
        let conn: Box<dyn Conn> = match &self.addr {
            Addr::Tcp(addr) => {
                let stream = match self.policy.connect_timeout_ms {
                    Some(ms) => {
                        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                format!("address `{addr}` resolved to nothing"),
                            )
                        })?;
                        TcpStream::connect_timeout(&sockaddr, Duration::from_millis(ms.max(1)))?
                    }
                    None => TcpStream::connect(addr)?,
                };
                Box::new(stream)
            }
            Addr::Unix(path) => Box::new(UnixStream::connect(path)?),
        };
        conn.configure(self.policy.io_timeout_ms.map(Duration::from_millis))?;
        self.conn = Some(conn);
        Ok(())
    }

    /// Sends one encoded request and reads its response.
    fn roundtrip(&mut self, payload: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let conn = self.conn.as_mut().expect("reconnect just succeeded");
        let result = (|| {
            write_frame(conn, payload)?;
            let reply = read_frame(conn)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            })?;
            Ok(Response::decode(&reply)?)
        })();
        if result.is_err() {
            // Whatever happened, the framing on this connection can no
            // longer be trusted; the next attempt dials fresh.
            self.conn = None;
        }
        result
    }

    /// Runs `attempt` under the retry policy: transport failures reconnect
    /// and resubmit, [`Submission::Overloaded`] backs off honoring the
    /// server's hint, everything else returns immediately. Safe because the
    /// server keys jobs by content digest — a resubmission of completed
    /// work is a cache hit, never a duplicate execution.
    fn with_retries(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> io::Result<Submission>,
    ) -> io::Result<Submission> {
        let start = Instant::now();
        let deadline = self.policy.deadline_ms.map(Duration::from_millis);
        let mut tries = 0u32;
        loop {
            let outcome = attempt(self);
            let pause = match &outcome {
                Ok(Submission::Overloaded { retry_after_ms }) => {
                    let jitter = self.jitter();
                    Some(
                        self.policy
                            .backoff(tries + 1, jitter)
                            .max(Duration::from_millis(*retry_after_ms)),
                    )
                }
                Err(e) if retryable(e) => {
                    let jitter = self.jitter();
                    Some(self.policy.backoff(tries + 1, jitter))
                }
                _ => None,
            };
            let Some(pause) = pause else {
                return outcome;
            };
            tries += 1;
            let budget_left = tries <= self.policy.max_retries
                && deadline.is_none_or(|d| start.elapsed() + pause < d);
            if !budget_left {
                if self.policy.max_retries > 0 {
                    self.stats.gave_up += 1;
                }
                return outcome;
            }
            self.stats.retries += 1;
            std::thread::sleep(pause);
        }
    }

    fn expect_report(response: Response) -> io::Result<Submission> {
        match response {
            Response::Report { cache_hit, record } => {
                let report = JobReport::from_record(&record).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad report record: {e}"),
                    )
                })?;
                Ok(Submission::Done { cache_hit, report })
            }
            Response::Rejected { reason } => Ok(Submission::Rejected { reason }),
            Response::Overloaded { retry_after_ms } => {
                Ok(Submission::Overloaded { retry_after_ms })
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response {other:?}"),
            )),
        }
    }

    fn submit_trace_once(&mut self, spec: &JobSpec, trace_text: &str) -> io::Result<Submission> {
        let payload = RequestRef::Submit {
            tenant: &self.tenant,
            spec: &spec.to_token(),
            trace: trace_text.as_bytes(),
        }
        .encode();
        Self::expect_report(self.roundtrip(&payload)?)
    }

    /// Submits one whole trace and waits for the verdict, retrying per the
    /// attached [`RetryPolicy`].
    ///
    /// # Errors
    ///
    /// Transport failures (after retries, if any) only; job-level failures
    /// come back inside [`Submission`].
    pub fn submit_trace(&mut self, spec: &JobSpec, trace_text: &str) -> io::Result<Submission> {
        self.with_retries(|c| c.submit_trace_once(spec, trace_text))
    }

    /// Fetches the server's status snapshot (`key=value` lines; parse
    /// individual counters with
    /// [`status_counter`](crate::server::status_counter)).
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn status(&mut self) -> io::Result<String> {
        match self.roundtrip(&Request::Status.encode())? {
            Response::Status { text } => Ok(text),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response {other:?}"),
            )),
        }
    }

    /// Asks the server to shut down cleanly.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Shutdown.encode())? {
            Response::Bye => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response {other:?}"),
            )),
        }
    }
}

impl AnalysisService for Client {
    /// Remote submission. A server-side *rejection* (unknown tenant,
    /// oversized trace) is surfaced as an `InvalidInput` transport error,
    /// and overload past the retry budget as `WouldBlock` — the job never
    /// ran, so there is no report to return; job-level failures (bad
    /// trace, blown budget) arrive as ordinary reports.
    fn submit(&mut self, spec: &JobSpec, trace_text: &str) -> io::Result<JobReport> {
        match self.submit_trace(spec, trace_text)? {
            Submission::Done { report, .. } => Ok(report),
            Submission::Rejected { reason } => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("rejected by server: {reason}"),
            )),
            Submission::Overloaded { retry_after_ms } => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("server overloaded (retry after {retry_after_ms} ms)"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_capped_and_jittered_into_upper_half() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff_ms: 100,
            max_backoff_ms: 400,
            ..RetryPolicy::none()
        };
        for (attempt, cap) in [(1u32, 100u64), (2, 200), (3, 400), (4, 400), (10, 400)] {
            for jitter in [0u64, 1, u64::MAX, 0xdead_beef] {
                let d = policy.backoff(attempt, jitter).as_millis() as u64;
                assert!(
                    d >= cap / 2 && d <= cap,
                    "attempt {attempt} jitter {jitter}: {d} ∉ [{}, {cap}]",
                    cap / 2
                );
            }
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_for_a_seed() {
        // Two clients with the same seed draw the same jitter stream.
        let mut a = 0x5eed | 1u64;
        let mut b = 0x5eed | 1u64;
        let step = |x: &mut u64| {
            let mut v = *x;
            v ^= v >> 12;
            v ^= v << 25;
            v ^= v >> 27;
            *x = v;
            v.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        for _ in 0..32 {
            assert_eq!(step(&mut a), step(&mut b));
        }
    }
}
