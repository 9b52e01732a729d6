//! # backfi-sic
//!
//! Self-interference cancellation for the BackFi reader (§4.2).
//!
//! The reader receives its own WiFi transmission ~70–90 dB stronger than the
//! tag's backscatter. Cancellation runs in two stages, mirroring the
//! full-duplex radio designs the paper builds on:
//!
//! * [`analog`] — an RF canceller with a few quantized taps whose job is to
//!   knock the self-interference down below the ADC's saturation point,
//! * [`digital`] — a least-squares FIR estimated **during the tag's 16 µs
//!   silent period** (the paper's key protocol trick: with no backscatter
//!   present, the estimate cannot capture — and therefore cannot cancel —
//!   the tag signal) and subtracted in baseband,
//! * [`estimator`] — the shared regularized least-squares FIR estimator
//!   (also used by the reader for the forward∗backward channel),
//! * [`linalg`] — small dense complex linear algebra (the `nalgebra`/`faer`
//!   crates are not on the offline allowlist),
//! * [`canceller`] — the composed two-stage pipeline including the ADC.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod analog;
pub mod canceller;
pub mod digital;
pub mod estimator;
pub mod linalg;

pub use backfi_chan::frontend::RxSource;
pub use canceller::{CancellerConfig, CancellerReport, SelfInterferenceCanceller, SicScratch};
pub use estimator::{estimate_fir, estimate_fir_masked};
