//! `tracto-trace`: structured instrumentation and the workspace typed error
//! hierarchy.
//!
//! This crate is the root of the workspace dependency graph (it depends on
//! nothing but std) and provides the two cross-cutting seams
//! every other layer threads through:
//!
//! * **Events** — [`Tracer`] is a cheap-clone handle over a pluggable
//!   [`TraceSink`]. Instrumented code calls `tracer.emit(name, fields)`
//!   unconditionally; with no sink attached that is one branch and zero
//!   allocation, so launch loops and cache lookups keep their hooks even in
//!   production builds. Events carry a per-tracer sequence number, a
//!   monotonic timestamp, and (from the GPU simulator) the simulated-device
//!   clock. Sinks: [`RingSink`] (tests/in-process), [`JsonlSink`]
//!   (JSON-lines file, `tracto --trace out.jsonl`), [`StderrSink`] (pretty
//!   stderr, `tracto --trace-stderr`).
//!
//! * **Errors** — [`TractoError`] with `Io`/`Format`/`Config`/`Capacity`/
//!   `Cancelled`/`Deadline` variants, `source()` chaining, and a cheap
//!   [`ErrorKind`] discriminant so callers match on kind instead of
//!   scraping strings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod event;
pub mod json;
mod sink;
mod tracer;

pub use error::{ErrorKind, TractoError, TractoResult};
pub use event::{Event, Field, Value};
pub use sink::{JsonlSink, RingSink, StderrSink, TraceSink};
pub use tracer::{Span, Tracer};
