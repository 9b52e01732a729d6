//! # backfi-tag
//!
//! The BackFi IoT sensor (Fig. 2 of the paper): everything that runs on the
//! tag.
//!
//! * [`config`] — the tag's communication parameters (modulation, coding
//!   rate, symbol switching rate, preamble length),
//! * [`psk`] — Gray-coded n-PSK phase mapping,
//! * [`modulator`] — the RF switch-tree backscatter phase modulator (Fig. 3),
//! * [`detector`] — the wake-up energy detector and 16-bit preamble
//!   correlator (§4.1),
//! * [`framer`] — the tag packet: silent period, PN preamble, header,
//!   payload, CRC (Fig. 4),
//! * [`state`] — the tag's link-layer state machine, driven sample by sample,
//! * [`energy`] — the EPB/REPB energy model that reproduces the paper's
//!   Fig. 7 table.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod detector;
pub mod energy;
pub mod framer;
pub mod modulator;
pub mod psk;
pub mod state;

pub use config::{TagConfig, TagModulation};
pub use framer::TagFrame;
pub use state::Tag;
