#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![forbid(unsafe_code)]
//! MySRB — the web-based interface to the SRB.
//!
//! "MySRB is a web-oriented interface for accessing the data and metadata
//! brokered by the SRB, that allows users to share their scientific data
//! collections with their colleagues in a secure fashion."
//!
//! The crate reproduces the paper's §4–§5 interface:
//!
//! * session keys with a 60-minute limit and per-request security checks
//!   ([`session`]),
//! * the split-window browse view — metadata pane on top, collection
//!   listing below (Figure 1 → `pages::browse_page`),
//! * the file-ingestion form with Dublin Core and structural metadata
//!   (Figure 2 → `pages::ingest_form`),
//! * the four-part query builder (attribute drop-down, operator, value,
//!   display check-box),
//! * annotation entry and display, role-based ACL forms,
//! * a handwritten HTTP/1.1 server ([`http`]) whose acceptors render each
//!   page into one reused body buffer ([`MySrb::respond`]).

pub mod app;
pub mod html;
pub mod http;
pub mod pages;
pub mod session;
pub mod urlenc;

pub use app::{MySrb, MySrbConfig, Request, Response};
pub use session::{SessionConfig, SessionStore, WEB_SESSION_TTL_SECS};
