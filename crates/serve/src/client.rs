//! Blocking in-process client for the wire protocol.
//!
//! Used by the integration tests and the `rechisel-load` generator; also the
//! reference implementation of the client side of the protocol. One [`Client`]
//! owns one TCP connection and issues requests synchronously; `run_session`
//! collects the streamed event lines (decoded back into [`RunEvent`]s) until the
//! terminal reply arrives.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rechisel_core::RunEvent;
use rechisel_sim::EngineKind;

use crate::json::{parse, Json};
use crate::wire::{decode_event, DEFAULT_MAX_ITERATIONS};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The server replied `ok: false` with this typed error.
    Server {
        /// The wire error kind (e.g. `busy`, `timeout`, `unknown_case`).
        kind: String,
        /// Human-readable message.
        message: String,
    },
    /// The server sent something the client could not interpret.
    Protocol(String),
}

impl ClientError {
    /// True when the server pushed back with `busy`.
    pub fn is_busy(&self) -> bool {
        matches!(self, ClientError::Server { kind, .. } if kind == "busy")
    }

    /// The wire error kind, when this is a server-side error.
    pub fn kind(&self) -> Option<&str> {
        match self {
            ClientError::Server { kind, .. } => Some(kind),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server { kind, message } => write!(f, "server error [{kind}]: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result of a `compile` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReply {
    /// The circuit's content fingerprint (32 hex digits).
    pub fingerprint: String,
    /// False only when this request compiled the case's reference (the case's
    /// first heavy request on the server).
    pub cached: bool,
    /// Size of the emitted Verilog.
    pub verilog_bytes: u64,
}

/// Result of a `simulate` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulateReply {
    /// Whether every checked point passed.
    pub passed: bool,
    /// Number of checked points.
    pub points: u64,
}

/// Result of a `run_session` request: the streamed events plus the terminal
/// summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Every streamed event, in order.
    pub events: Vec<RunEvent>,
    /// Whether a candidate passed within the iteration cap.
    pub success: bool,
    /// Iteration of first success, if any.
    pub success_iteration: Option<u32>,
    /// Iterations evaluated.
    pub iterations: u64,
    /// Escape firings.
    pub escapes: u64,
}

/// What [`Client::drain_sessions`] returns: `(id, outcome)` pairs in completion
/// order, where a typed server rejection (e.g. `busy`) is the per-id `Err`.
pub type DrainedSessions = Vec<(u64, Result<SessionOutcome, ClientError>)>;

/// Parameters of a `run_session` request.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// Suite case id.
    pub case: String,
    /// Sample index.
    pub sample: u32,
    /// Wire model name (`None` = server default).
    pub model: Option<String>,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Simulation engine (`None` = server default).
    pub engine: Option<EngineKind>,
}

impl SessionRequest {
    /// A session request for `case` with the defaults.
    pub fn new(case: impl Into<String>) -> Self {
        Self {
            case: case.into(),
            sample: 0,
            model: None,
            max_iterations: DEFAULT_MAX_ITERATIONS,
            engine: None,
        }
    }

    /// Sets the sample index.
    pub fn sample(mut self, sample: u32) -> Self {
        self.sample = sample;
        self
    }

    /// Sets the wire model name.
    pub fn model(mut self, model: impl Into<String>) -> Self {
        self.model = Some(model.into());
        self
    }

    /// Sets the iteration cap.
    pub fn max_iterations(mut self, n: u32) -> Self {
        self.max_iterations = n;
        self
    }
}

/// Cache + server counters from a `stats` request, as raw JSON (the typed parts
/// most callers need have accessors).
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    /// The full reply object.
    pub raw: Json,
}

impl StatsReply {
    fn num(&self, section: &str, field: &str) -> u64 {
        self.raw.get(section).and_then(|s| s.get(field)).and_then(Json::as_u64).unwrap_or_default()
    }

    /// Cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.num("cache", "hits")
    }

    /// Cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.num("cache", "misses")
    }

    /// Cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        self.raw
            .get("cache")
            .and_then(|s| s.get("hit_rate"))
            .and_then(Json::as_f64)
            .unwrap_or_default()
    }

    /// `busy` replies the server has sent.
    pub fn server_busy(&self) -> u64 {
        self.num("server", "busy")
    }

    /// High-water mark of queued + executing jobs.
    pub fn jobs_high_water(&self) -> u64 {
        self.num("server", "jobs_high_water")
    }

    /// Sessions the server has completed.
    pub fn sessions(&self) -> u64 {
        self.num("server", "sessions")
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // A generous ceiling so a wedged server cannot hang a test run forever;
        // sessions stream events well within this.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let writer = stream.try_clone()?;
        Ok(Self { reader: BufReader::new(stream), writer, next_id: 0 })
    }

    /// Connects, retrying for up to `timeout` — covers the startup race when the
    /// server process was just spawned.
    ///
    /// # Errors
    ///
    /// Returns the last connect error when the deadline passes.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            match Self::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    fn send(&mut self, mut request: Json) -> Result<u64, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        if let Json::Obj(map) = &mut request {
            map.insert("id".into(), Json::from(id));
        }
        let mut line = request.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// Sends a raw line (malformed on purpose or not) and returns the next reply
    /// line's JSON — the robustness-test hook.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; replies that are not valid JSON become
    /// [`ClientError::Protocol`].
    pub fn send_raw_line(&mut self, line: &str) -> Result<Json, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.read_value()
    }

    fn read_value(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed by server".into()));
        }
        parse(line.trim_end()).map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")))
    }

    /// Reads reply lines until the terminal reply for `id`, streaming any event
    /// lines to `on_event`. Lines for other ids are a protocol error (this client
    /// is strictly sequential).
    fn read_terminal(
        &mut self,
        id: u64,
        mut on_event: impl FnMut(&Json),
    ) -> Result<Json, ClientError> {
        loop {
            let value = self.read_value()?;
            let line_id = value.get("id").and_then(Json::as_u64);
            if line_id != Some(id) {
                return Err(ClientError::Protocol(format!(
                    "reply for unexpected id {line_id:?} (want {id})"
                )));
            }
            if let Some(event) = value.get("event") {
                on_event(event);
                continue;
            }
            return match value.get("ok").and_then(Json::as_bool) {
                Some(true) => Ok(value),
                Some(false) => {
                    let err = value.get("error");
                    Err(ClientError::Server {
                        kind: err
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                        message: err
                            .and_then(|e| e.get("message"))
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    })
                }
                None => Err(ClientError::Protocol("reply missing `ok`".into())),
            };
        }
    }

    fn request(&mut self, body: Json) -> Result<Json, ClientError> {
        let id = self.send(body)?;
        self.read_terminal(id, |_| {})
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// Any transport, server or protocol error.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(Json::obj([("op", Json::from("ping"))])).map(|_| ())
    }

    /// Compiles a suite case's reference; the server compiles each case once.
    ///
    /// # Errors
    ///
    /// Any transport, server or protocol error (e.g. `unknown_case`, `busy`).
    pub fn compile(&mut self, case: &str) -> Result<CompileReply, ClientError> {
        let reply =
            self.request(Json::obj([("op", Json::from("compile")), ("case", Json::from(case))]))?;
        Ok(CompileReply {
            fingerprint: reply
                .get("fingerprint")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            cached: reply.get("cached").and_then(Json::as_bool).unwrap_or_default(),
            verilog_bytes: reply.get("verilog_bytes").and_then(Json::as_u64).unwrap_or_default(),
        })
    }

    /// Runs a case's testbench against its own reference design.
    ///
    /// # Errors
    ///
    /// Any transport, server or protocol error.
    pub fn simulate(&mut self, case: &str) -> Result<SimulateReply, ClientError> {
        let reply =
            self.request(Json::obj([("op", Json::from("simulate")), ("case", Json::from(case))]))?;
        Ok(SimulateReply {
            passed: reply.get("passed").and_then(Json::as_bool).unwrap_or_default(),
            points: reply.get("points").and_then(Json::as_u64).unwrap_or_default(),
        })
    }

    /// Runs one ReChisel session, collecting the streamed events.
    ///
    /// # Errors
    ///
    /// Any transport, server or protocol error; `busy` when backpressure rejected
    /// the job.
    pub fn run_session(&mut self, request: &SessionRequest) -> Result<SessionOutcome, ClientError> {
        let id = self.start_session(request)?;
        let mut outcomes = self.drain_sessions(&[id])?;
        outcomes.remove(0).1
    }

    /// Sends a `run_session` request without waiting for its reply — the open-loop
    /// pipelining entry point. Pair with [`drain_sessions`](Self::drain_sessions).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn start_session(&mut self, request: &SessionRequest) -> Result<u64, ClientError> {
        let mut body = vec![
            ("op", Json::from("run_session")),
            ("case", Json::from(request.case.as_str())),
            ("sample", Json::from(request.sample)),
            ("max_iterations", Json::from(request.max_iterations)),
        ];
        if let Some(model) = &request.model {
            body.push(("model", Json::from(model.as_str())));
        }
        if let Some(engine) = request.engine {
            body.push(("engine", Json::from(engine.name())));
        }
        self.send(Json::obj(body))
    }

    /// Drains the replies of previously [started](Self::start_session) sessions,
    /// demultiplexing the interleaved event/terminal lines of concurrently
    /// executing jobs. Returns `(id, outcome)` pairs in completion order; a typed
    /// server rejection (e.g. `busy`) is the per-id `Err`.
    ///
    /// # Errors
    ///
    /// The outer `Err` is a transport or protocol failure that aborts the drain.
    pub fn drain_sessions(&mut self, ids: &[u64]) -> Result<DrainedSessions, ClientError> {
        use std::collections::{HashMap, HashSet};
        let mut pending: HashSet<u64> = ids.iter().copied().collect();
        let mut events: HashMap<u64, Vec<RunEvent>> = HashMap::new();
        let mut done = Vec::with_capacity(ids.len());
        while !pending.is_empty() {
            let value = self.read_value()?;
            let Some(id) = value.get("id").and_then(Json::as_u64) else {
                return Err(ClientError::Protocol(format!("reply without id: {}", value.encode())));
            };
            if !pending.contains(&id) {
                return Err(ClientError::Protocol(format!("reply for unexpected id {id}")));
            }
            if let Some(event) = value.get("event") {
                match decode_event(event) {
                    Some(e) => events.entry(id).or_default().push(e),
                    None => {
                        return Err(ClientError::Protocol(format!(
                            "undecodable event line for id {id}"
                        )))
                    }
                }
                continue;
            }
            pending.remove(&id);
            let outcome = match value.get("ok").and_then(Json::as_bool) {
                Some(true) => Ok(SessionOutcome {
                    events: events.remove(&id).unwrap_or_default(),
                    success: value.get("success").and_then(Json::as_bool).unwrap_or_default(),
                    success_iteration: value
                        .get("success_iteration")
                        .and_then(Json::as_u64)
                        .map(|n| n as u32),
                    iterations: value.get("iterations").and_then(Json::as_u64).unwrap_or_default(),
                    escapes: value.get("escapes").and_then(Json::as_u64).unwrap_or_default(),
                }),
                Some(false) => {
                    let err = value.get("error");
                    Err(ClientError::Server {
                        kind: err
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                        message: err
                            .and_then(|e| e.get("message"))
                            .and_then(Json::as_str)
                            .unwrap_or_default()
                            .to_string(),
                    })
                }
                None => return Err(ClientError::Protocol("reply missing `ok`".into())),
            };
            done.push((id, outcome));
        }
        Ok(done)
    }

    /// Fetches cache + server counters.
    ///
    /// # Errors
    ///
    /// Any transport, server or protocol error.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.request(Json::obj([("op", Json::from("stats"))])).map(|raw| StatsReply { raw })
    }

    /// Requests graceful server shutdown.
    ///
    /// # Errors
    ///
    /// Any transport, server or protocol error.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.request(Json::obj([("op", Json::from("shutdown"))])).map(|_| ())
    }
}
