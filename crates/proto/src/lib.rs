//! The tracto wire protocol: how jobs cross a process boundary.
//!
//! `tracto-serve` exposes one submission surface — a typed
//! [`JobSpec`] — and this crate defines its wire form plus the transport
//! it rides on:
//!
//! - **Frames** ([`frame`]): 4-byte big-endian length prefix + UTF-8 JSON
//!   payload, capped at [`MAX_FRAME_BYTES`].
//! - **Messages** ([`wire`]): tagged [`Request`]/[`Response`] objects. A
//!   connection opens with a `hello` exchange carrying
//!   [`PROTOCOL_VERSION`]; a mismatch is answered with a typed error and
//!   the connection closes.
//! - **Endpoints** ([`endpoint`]): Unix-domain sockets by default, TCP via
//!   an explicit `tcp:` prefix.
//! - **Client** ([`client`]): [`RemoteService`], a blocking
//!   request/response connection with the same verbs as the in-process
//!   service.
//!
//! # Compatibility policy
//!
//! There is one protocol version, [`PROTOCOL_VERSION`], bumped on any
//! change a peer could misread: renamed/removed fields, re-typed fields,
//! or changed framing. Every producer and consumer of the wire lives in
//! this workspace, so nothing negotiates: a `hello` carrying any other
//! version is answered with a typed `protocol` error and the connection
//! closes ([`check_version`] is that rule, shared by the server, the fleet
//! coordinator and the client). Additive fields with defaults do not bump
//! the version. Peers differ only in capability: the fleet coordinator
//! forwards `await` across takeovers but does not push events or take
//! uploads, and says so with a typed in-band error.
//!
//! The crate is std-only: JSON encode/decode reuses `tracto-trace`'s
//! hand-rolled writer/parser, so nothing new is pulled into the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod b64;
pub mod client;
pub mod endpoint;
pub mod frame;
mod json_util;
pub mod spec;
pub mod wire;

pub use client::{capacity_retry_after, RemoteService};
pub use endpoint::Endpoint;
pub use frame::{read_frame, write_frame, FrameBuf, MAX_FRAME_BYTES};
pub use spec::{
    content_digest, lengths_digest, placement_key, CachePolicy, ChainSpec, DatasetSpec, JobKind,
    JobSpec, Modality, Priority, TrackSpec, DEFAULT_TENANT,
};
pub use wire::{
    Event, FleetWire, JobState, MemberWire, MetricsWire, Outcome, Request, Response, TenantWire,
    UPLOAD_CHUNK_MAX,
};

/// The protocol version this build speaks — the only one it accepts (see
/// the compatibility policy in the crate docs).
///
/// v3 added the fleet verbs (`ping`, `replicate`, `takeover`,
/// `fleet_status`, `route`) and the optional `member` identity in the
/// server's `hello`.
pub const PROTOCOL_VERSION: u32 = 3;

/// The handshake rule every peer applies to the other side's version:
/// exactly [`PROTOCOL_VERSION`], or a typed protocol error naming both.
pub fn check_version(version: u32) -> tracto_trace::TractoResult<()> {
    if version == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(tracto_trace::TractoError::protocol(format!(
            "version mismatch: this peer speaks {PROTOCOL_VERSION}, the other sent {version}"
        )))
    }
}
