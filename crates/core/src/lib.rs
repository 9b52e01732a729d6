//! # backfi-core
//!
//! The end-to-end BackFi system simulator: everything in Figs. 1, 4 and 5 of
//! the paper wired together, plus the experiment harnesses behind every
//! figure of the evaluation (§6).
//!
//! * [`excitation`] — the AP's transmission: CTS-to-self, 16-bit wake-up
//!   pulse preamble, then the WiFi data packet that doubles as the
//!   backscatter excitation,
//! * [`link`] — one reader ↔ tag exchange over the simulated medium,
//! * [`sweep`] — trial/parameter sweeps (rate cycling like §6.1's
//!   methodology),
//! * [`network`] — WiFi coexistence: client throughput with/without an
//!   active tag (Figs. 12b, 13),
//! * [`traces`] — loaded-AP airtime traces and replay (Fig. 12a),
//! * [`baseline`] — the prior WiFi-backscatter system [27, 25] as the
//!   headline comparator,
//! * [`mimo`] — the §7 multi-antenna AP extension (spatial MRC),
//! * [`figures`] — one data-generating function per paper figure/table.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod baseline;
pub mod excitation;
pub mod figures;
pub mod link;
pub mod mimo;
pub mod network;
pub mod sweep;
pub mod traces;

pub use excitation::{Excitation, ExcitationConfig};
pub use link::{LinkConfig, LinkReport, LinkSimulator};
