//! Discrete-event DNS traffic simulator.
//!
//! This crate is the data-gate substitution for the paper's private pcap
//! archives: it synthesizes resolver-to-authoritative DNS traffic for
//! the three vantage points (`.nl`, `.nz`, B-Root) across the three
//! yearly snapshots, writing wire-format frames through the `.dnscap`
//! capture boundary that the `entrada` warehouse ingests.
//!
//! Everything the paper measures is generated *mechanistically* where
//! the mechanism matters, and *calibrated* where only the mixture
//! matters:
//!
//! - **Mechanistic**: QNAME minimization really strips qnames to one
//!   label below the zone cut and switches to NS queries; truncation
//!   really happens when an encoded response exceeds the advertised
//!   EDNS(0) size, and really triggers a TCP retry carrying a handshake
//!   RTT; resolver caches really absorb repeat queries for hot names;
//!   DS queries really follow referrals for signed delegations.
//! - **Calibrated**: per-provider query shares, qtype mixes, junk
//!   ratios, address-family fleets and EDNS-size distributions follow
//!   the paper's published aggregates (Tables 3-6, Figures 1-6), which
//!   are encoded in [`profile`].
//!
//! The module map: [`profile`] (calibration tables), [`fleet`]
//! (resolver fleets, Facebook sites, PTR zone), [`auth`] (the
//! authoritative responder), [`engine`] (the calibrated generation
//! loop), [`emerge`] (the algorithmic resolver fleet), [`drive`] (pull-mode
//! sampling for live load), [`scenario`] (the nine datasets plus the
//! monthly series). Both generators write the vantage capture through
//! one private traffic plane: slot plan and scheduler, query half and
//! vantage recorder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auth;
pub mod drive;
pub mod emerge;
pub mod engine;
pub mod fleet;
mod plane;
pub mod profile;
pub mod ptr;
pub mod rrl;
pub mod scenario;

pub use drive::{Driver, PlannedQuery};
pub use engine::{DatasetStats, Engine};
pub use profile::{qmin_start, FleetSpec, SiteSpec, Vantage};
pub use ptr::PtrDb;
pub use scenario::{dataset, monthly_google, monthly_provider, DatasetSpec, Scale, Week};
