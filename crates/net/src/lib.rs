//! # pe-net
//!
//! The network front door for PockEngine-RS: a versioned, length-prefixed
//! binary wire protocol (no external dependencies — hand-rolled frames
//! over `std::net`) that carries the full serving request vocabulary —
//! deadlines, priorities, caller ids — to an [`AsyncEngine`]
//! behind a TCP listener, and streams [`Outcome`]s back in completion
//! order.
//!
//! The crate splits three ways:
//!
//! * [`proto`] — every frame encoding and decoding in one place; `f32`
//!   payloads travel as IEEE-754 bit patterns and durations as exact
//!   nanoseconds, so results round-trip bit-identically;
//! * [`Server`] — accept loop, thread-per-connection readers feeding
//!   cloned [`Submitter`]s, per-connection writers resolving tickets in
//!   completion order via [`TicketNotify`];
//! * [`Client`] — implements [`pockengine::Submit`] and hands out the same
//!   [`pockengine::Ticket`] the in-process queue does, so engine code and
//!   tests written against the trait run unchanged over TCP.
//!
//! [`AsyncEngine`]: pockengine::AsyncEngine
//! [`Submitter`]: pockengine::Submitter
//! [`TicketNotify`]: pockengine::TicketNotify
//! [`Outcome`]: pockengine::Outcome

#![deny(missing_docs)]

pub(crate) mod client;
pub mod env;
pub mod proto;
pub(crate) mod server;

pub use client::{max_frame_from_env, Client};
pub use server::{Server, ServerConfig, ServerCore};
