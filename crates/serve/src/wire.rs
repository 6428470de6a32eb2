//! Wire protocol: newline-delimited JSON requests, replies and streamed events.
//!
//! Every request is one JSON object on one line with an `op` field and a
//! client-chosen numeric `id`; every line the server sends back carries that `id`,
//! so a client can multiplex (and the load generator can account for every
//! request). A request produces zero or more `{"id":N,"event":{...}}` stream lines
//! followed by exactly one terminal reply — `{"id":N,"ok":true,...}` or
//! `{"id":N,"ok":false,"error":{"kind":...,"message":...}}`. A request is never
//! dropped without a terminal reply.
//!
//! # Operations
//!
//! | op            | fields                                            | reply payload |
//! |---------------|---------------------------------------------------|---------------|
//! | `ping`        | —                                                 | `pong: true` |
//! | `compile`     | `case`                                            | `fingerprint`, `cached`, `verilog_bytes` |
//! | `simulate`    | `case`, `engine?`                                 | `passed`, `points` |
//! | `run_session` | `case`, `sample?`, `model?`, `max_iterations?`, `engine?` | streamed events + `success`, `iterations`, `escapes`, `success_iteration?` |
//! | `stats`       | —                                                 | `cache{...}`, `server{...}` |
//! | `shutdown`    | —                                                 | `stopping: true` |
//!
//! `engine` is `"interp"` or `"compiled"` (the default), as spelled by
//! [`EngineKind::name`]; any other name is a `bad_request`.
//!
//! The server compiles each case's reference once, on the case's first heavy request
//! (`compile`, `simulate` or `run_session`). `cached` is false only on the `compile`
//! that did it. `stats` reports `cache{hits, misses, hit_rate}`: one miss per case
//! compiled and one hit per other heavy request.
//!
//! Error kinds: `bad_request`, `oversized`, `timeout`, `busy`, `unknown_case`,
//! `unknown_model`, `compile_error`, `shutting_down`, `internal`.

use rechisel_core::{IterationStatus, RunEvent, RunEventKind};
use rechisel_llm::{Language, ModelProfile};
use rechisel_sim::EngineKind;

use crate::json::Json;

/// Default iteration cap for `run_session` when the request omits it.
pub const DEFAULT_MAX_ITERATIONS: u32 = 10;

/// Typed error kinds a reply can carry; the wire form is the kebab-less
/// snake_case string in [`ErrorKind::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a JSON object with the required fields.
    BadRequest,
    /// The line exceeded the server's size limit.
    Oversized,
    /// The request line did not complete within the read deadline.
    Timeout,
    /// The job queue is full; retry later.
    Busy,
    /// The `case` id is not in the server's suite.
    UnknownCase,
    /// The `model` name is not a known profile.
    UnknownModel,
    /// The case's reference circuit failed to compile.
    CompileError,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// The wire encoding of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Busy => "busy",
            ErrorKind::UnknownCase => "unknown_case",
            ErrorKind::UnknownModel => "unknown_model",
            ErrorKind::CompileError => "compile_error",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Builds a terminal error reply line (without trailing newline).
pub fn error_reply(id: Option<u64>, kind: ErrorKind, message: &str) -> Json {
    Json::obj([
        ("id", id.map(Json::from).unwrap_or(Json::Null)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj([("kind", Json::from(kind.as_str())), ("message", Json::from(message))]),
        ),
    ])
}

/// Builds a terminal success reply line from extra payload fields.
pub fn ok_reply(id: u64, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut obj = match Json::obj(fields) {
        Json::Obj(map) => map,
        _ => unreachable!(),
    };
    obj.insert("id".into(), Json::from(id));
    obj.insert("ok".into(), Json::Bool(true));
    Json::Obj(obj)
}

/// A validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id echoed on every line this request produces.
    pub id: u64,
    /// What to do.
    pub op: Op,
}

/// The operation of a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness check (answered inline, never queued).
    Ping,
    /// Report a suite case's compiled reference circuit (compiled once per case).
    Compile {
        /// Suite case id.
        case: String,
    },
    /// Run the case's testbench against its own reference (a sanity run).
    Simulate {
        /// Suite case id.
        case: String,
        /// Simulation engine.
        engine: EngineKind,
    },
    /// Run one ReChisel session (the paper's reflection loop) and stream its events.
    RunSession {
        /// Suite case id.
        case: String,
        /// Sample index (seeds the synthetic LLM together with the case seed).
        sample: u32,
        /// Synthetic model profile (boxed: a profile is ~200 bytes of defect-model
        /// parameters, and every other variant is a few words).
        model: Box<ModelProfile>,
        /// Iteration cap.
        max_iterations: u32,
        /// Simulation engine.
        engine: EngineKind,
    },
    /// Cache + server counters (answered inline).
    Stats,
    /// Begin graceful shutdown (answered inline, then the server drains).
    Shutdown,
}

/// Resolves a wire model name to a profile. `None` for unknown names.
pub fn model_by_name(name: &str) -> Option<ModelProfile> {
    match name {
        "gpt-4-turbo" => Some(ModelProfile::gpt4_turbo()),
        "gpt-4o" => Some(ModelProfile::gpt4o()),
        "gpt-4o-mini" => Some(ModelProfile::gpt4o_mini()),
        "claude-3.5-sonnet" => Some(ModelProfile::claude35_sonnet()),
        "claude-3.5-haiku" => Some(ModelProfile::claude35_haiku()),
        _ => None,
    }
}

/// The wire names accepted by [`model_by_name`].
pub const MODEL_NAMES: [&str; 5] =
    ["gpt-4-turbo", "gpt-4o", "gpt-4o-mini", "claude-3.5-sonnet", "claude-3.5-haiku"];

/// The language every served session generates in (the ReChisel path).
pub const SERVED_LANGUAGE: Language = Language::Chisel;

/// Decodes and validates one request line's parsed JSON.
///
/// # Errors
///
/// Returns the id (when one was recoverable) and a typed error for the reply.
pub fn decode_request(value: &Json) -> Result<Request, (Option<u64>, ErrorKind, String)> {
    let id = value.get("id").and_then(Json::as_u64);
    let fail = |kind: ErrorKind, msg: String| Err((id, kind, msg));
    if !matches!(value, Json::Obj(_)) {
        return fail(ErrorKind::BadRequest, "request must be a JSON object".into());
    }
    let Some(id) = id else {
        return fail(ErrorKind::BadRequest, "missing or non-integer `id`".into());
    };
    let Some(op) = value.get("op").and_then(Json::as_str) else {
        return fail(ErrorKind::BadRequest, "missing `op`".into());
    };
    let case = || -> Result<String, (Option<u64>, ErrorKind, String)> {
        value.get("case").and_then(Json::as_str).map(str::to_string).ok_or((
            Some(id),
            ErrorKind::BadRequest,
            "missing `case`".into(),
        ))
    };
    let engine = || -> Result<EngineKind, (Option<u64>, ErrorKind, String)> {
        match value.get("engine") {
            None => Ok(EngineKind::Compiled),
            Some(v) => v.as_str().and_then(EngineKind::from_name).ok_or((
                Some(id),
                ErrorKind::BadRequest,
                "unknown `engine`".into(),
            )),
        }
    };
    let op = match op {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "compile" => Op::Compile { case: case()? },
        "simulate" => Op::Simulate { case: case()?, engine: engine()? },
        "run_session" => {
            let model = match value.get("model") {
                None => Box::new(ModelProfile::gpt4o()),
                Some(v) => match v.as_str().and_then(model_by_name) {
                    Some(profile) => Box::new(profile),
                    None => {
                        return fail(
                            ErrorKind::UnknownModel,
                            format!("unknown `model` (known: {})", MODEL_NAMES.join(", ")),
                        )
                    }
                },
            };
            let sample = match value.get("sample") {
                None => 0,
                Some(v) => match v.as_u64() {
                    Some(n) if n <= u64::from(u32::MAX) => n as u32,
                    _ => return fail(ErrorKind::BadRequest, "invalid `sample`".into()),
                },
            };
            let max_iterations = match value.get("max_iterations") {
                None => DEFAULT_MAX_ITERATIONS,
                Some(v) => match v.as_u64() {
                    Some(n) if n <= 1000 => n as u32,
                    _ => return fail(ErrorKind::BadRequest, "invalid `max_iterations`".into()),
                },
            };
            Op::RunSession { case: case()?, sample, model, max_iterations, engine: engine()? }
        }
        other => return fail(ErrorKind::BadRequest, format!("unknown op `{other}`")),
    };
    Ok(Request { id, op })
}

/// Encodes a streamed run event line.
pub fn encode_event(id: u64, event: &RunEvent) -> Json {
    let kind = match event.kind {
        RunEventKind::RunStarted => Json::obj([("type", Json::from("run_started"))]),
        RunEventKind::IterationStarted { iteration } => Json::obj([
            ("type", Json::from("iteration_started")),
            ("iteration", Json::from(iteration)),
        ]),
        RunEventKind::FeedbackProduced { iteration, status } => Json::obj([
            ("type", Json::from("feedback_produced")),
            ("iteration", Json::from(iteration)),
            ("status", Json::from(status_name(status))),
        ]),
        RunEventKind::EscapeFired { iteration, discarded } => Json::obj([
            ("type", Json::from("escape_fired")),
            ("iteration", Json::from(iteration)),
            ("discarded", Json::from(discarded)),
        ]),
        RunEventKind::Success { iteration } => {
            Json::obj([("type", Json::from("success")), ("iteration", Json::from(iteration))])
        }
        RunEventKind::RunFinished { success, iterations, escapes } => Json::obj([
            ("type", Json::from("run_finished")),
            ("success", Json::from(success)),
            ("iterations", Json::from(iterations)),
            ("escapes", Json::from(escapes)),
        ]),
    };
    Json::obj([
        ("id", Json::from(id)),
        (
            "event",
            Json::obj([
                ("spec", Json::from(event.spec.as_str())),
                ("attempt", Json::from(event.attempt)),
                ("kind", kind),
            ]),
        ),
    ])
}

fn status_name(status: IterationStatus) -> &'static str {
    match status {
        IterationStatus::Success => "success",
        IterationStatus::SyntaxError => "syntax_error",
        IterationStatus::FunctionalError => "functional_error",
    }
}

fn status_by_name(name: &str) -> Option<IterationStatus> {
    match name {
        "success" => Some(IterationStatus::Success),
        "syntax_error" => Some(IterationStatus::SyntaxError),
        "functional_error" => Some(IterationStatus::FunctionalError),
        _ => None,
    }
}

/// Decodes a streamed event line back into a [`RunEvent`] (the client side of
/// [`encode_event`]); `None` when the payload is not a well-formed event.
pub fn decode_event(event: &Json) -> Option<RunEvent> {
    let spec = event.get("spec")?.as_str()?.to_string();
    let attempt = event.get("attempt")?.as_u64()? as u32;
    let kind = event.get("kind")?;
    let iteration = || kind.get("iteration").and_then(Json::as_u64).map(|n| n as u32);
    let kind = match kind.get("type")?.as_str()? {
        "run_started" => RunEventKind::RunStarted,
        "iteration_started" => RunEventKind::IterationStarted { iteration: iteration()? },
        "feedback_produced" => RunEventKind::FeedbackProduced {
            iteration: iteration()?,
            status: status_by_name(kind.get("status")?.as_str()?)?,
        },
        "escape_fired" => RunEventKind::EscapeFired {
            iteration: iteration()?,
            discarded: kind.get("discarded").and_then(Json::as_u64)? as u32,
        },
        "success" => RunEventKind::Success { iteration: iteration()? },
        "run_finished" => RunEventKind::RunFinished {
            success: kind.get("success")?.as_bool()?,
            iterations: kind.get("iterations").and_then(Json::as_u64)? as u32,
            escapes: kind.get("escapes").and_then(Json::as_u64)? as u32,
        },
        _ => return None,
    };
    Some(RunEvent { spec, attempt, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn decodes_a_full_run_session_request() {
        let line = r#"{"op":"run_session","id":9,"case":"hdlbits/vector5","sample":3,
                       "model":"claude-3.5-haiku","max_iterations":4,"engine":"interp"}"#;
        let req = decode_request(&parse(line).unwrap()).unwrap();
        assert_eq!(req.id, 9);
        match req.op {
            Op::RunSession { case, sample, model, max_iterations, engine } => {
                assert_eq!(case, "hdlbits/vector5");
                assert_eq!(sample, 3);
                assert_eq!(model.name, "Claude 3.5 Haiku");
                assert_eq!(max_iterations, 4);
                assert_eq!(engine, EngineKind::Interp);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn defaults_fill_in_for_omitted_fields() {
        let req =
            decode_request(&parse(r#"{"op":"run_session","id":1,"case":"c"}"#).unwrap()).unwrap();
        match req.op {
            Op::RunSession { sample, model, max_iterations, engine, .. } => {
                assert_eq!(sample, 0);
                assert_eq!(model.name, "GPT-4o");
                assert_eq!(max_iterations, DEFAULT_MAX_ITERATIONS);
                assert_eq!(engine, EngineKind::Compiled);
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        let cases = [
            (r#"{"op":"ping"}"#, ErrorKind::BadRequest),
            (r#"{"id":1}"#, ErrorKind::BadRequest),
            (r#"{"op":"warp","id":1}"#, ErrorKind::BadRequest),
            (r#"{"op":"compile","id":1}"#, ErrorKind::BadRequest),
            (r#"{"op":"run_session","id":1,"case":"c","model":"gpt-5"}"#, ErrorKind::UnknownModel),
            (r#"{"op":"simulate","id":1,"case":"c","engine":"quantum"}"#, ErrorKind::BadRequest),
            (r#"{"op":"simulate","id":1,"case":"c","engine":"batched"}"#, ErrorKind::BadRequest),
            (r#"{"op":"simulate","id":1,"case":"c","engine":"native"}"#, ErrorKind::BadRequest),
            (r#"{"op":"run_session","id":1,"case":"c","sample":-1}"#, ErrorKind::BadRequest),
        ];
        for (line, want) in cases {
            let (_, kind, _) = decode_request(&parse(line).unwrap()).unwrap_err();
            assert_eq!(kind, want, "line {line}");
        }
    }

    #[test]
    fn events_round_trip_through_the_wire_encoding() {
        let events = [
            RunEventKind::RunStarted,
            RunEventKind::IterationStarted { iteration: 2 },
            RunEventKind::FeedbackProduced { iteration: 2, status: IterationStatus::SyntaxError },
            RunEventKind::EscapeFired { iteration: 3, discarded: 2 },
            RunEventKind::Success { iteration: 4 },
            RunEventKind::RunFinished { success: true, iterations: 5, escapes: 1 },
        ];
        for kind in events {
            let event = RunEvent { spec: "Adder".into(), attempt: 7, kind };
            let line = encode_event(42, &event);
            assert_eq!(line.get("id").and_then(Json::as_u64), Some(42));
            let decoded = decode_event(line.get("event").unwrap()).unwrap();
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn error_replies_carry_kind_and_id() {
        let reply = error_reply(Some(5), ErrorKind::Busy, "try later");
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(5));
        let err = reply.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("busy"));
        let anon = error_reply(None, ErrorKind::BadRequest, "no id");
        assert_eq!(anon.get("id"), Some(&Json::Null));
    }

    #[test]
    fn all_model_names_resolve() {
        for name in MODEL_NAMES {
            assert!(model_by_name(name).is_some(), "{name}");
        }
        assert!(model_by_name("gpt-2").is_none());
    }
}
