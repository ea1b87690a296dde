//! # spdistal-client — the tensor service's wire protocol and client
//!
//! The counterpart of `spdistal-server`: length-prefixed JSON framing
//! ([`frame`]), the request/event vocabulary and tensor codecs
//! ([`proto`]), and a blocking [`Client`] used both as a library and by
//! the `spd-client` CLI. Std-only by design — the protocol is plain
//! TCP/UDS frames any language can speak. See `docs/server.md` for the
//! wire format.

pub mod client;
pub mod frame;
pub mod proto;

pub use client::{Client, ClientError, Socket, SubmitOutcome};
pub use frame::{read_frame, write_frame, FrameBuf, FrameError, FrameReader, DEFAULT_MAX_FRAME};
pub use proto::{
    format_by_name, tensor_from_wire, tensor_to_wire, Event, ProtoError, Request, StmtSpec,
};
