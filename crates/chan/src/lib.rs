//! # backfi-chan
//!
//! RF channel simulation for the BackFi reproduction: everything between the
//! AP's transmit chain and its receive chain.
//!
//! The medium implements the paper's Eq. 1/3 exactly:
//!
//! ```text
//! y_rx(t) = x(t) ∗ h_env(t) + [ (x(t) ∗ h_f(t)) · e^{jθ(t)} ] ∗ h_b(t) + n(t)
//! ```
//!
//! * [`budget`] — the link-budget constants (documented calibration, see
//!   DESIGN.md §6) and the backscatter path-gain model,
//! * [`multipath`] — tapped-delay-line Rayleigh/Rician channel realizations,
//! * [`environment`] — the self-interference channel `h_env` (circulator
//!   leakage + environmental reflections with a long tail),
//! * [`frontend`] — the receiver ADC (quantization and saturation) that the
//!   self-interference canceller digitizes with,
//! * [`impair`] — deterministic, seeded off-nominal impairment injection
//!   (clock drift, CFO, interference bursts, saturation transients,
//!   impulsive noise, truncated/corrupted streams), all off by default,
//! * [`medium`] — the composed backscatter medium that the end-to-end link
//!   simulator drives sample by sample.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod budget;
pub mod environment;
pub mod frontend;
pub mod impair;
pub mod medium;
pub mod multipath;

pub use budget::LinkBudget;
pub use medium::BackscatterMedium;
