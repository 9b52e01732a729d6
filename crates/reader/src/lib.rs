//! # backfi-reader
//!
//! The BackFi AP-side backscatter decoder (§4.3 and Fig. 5 of the paper).
//!
//! Pipeline per packet: self-interference cancellation (`backfi-sic`) →
//! combined forward∗backward channel estimation from the tag's PN preamble
//! (with timing search) → per-symbol maximal-ratio combining (Eq. 7) →
//! Gray n-PSK soft demapping → de-puncturing + Viterbi → tag frame parsing.
//!
//! * [`timeline`] — where the protocol phases land in the sample stream,
//! * [`chanest`] — `h_f ∗ h_b` estimation (§4.3.1),
//! * [`mrc`] — the MRC symbol estimator (§4.3.2) plus the naive
//!   zero-forcing alternative used as an ablation,
//! * [`decode`] — soft bits → Viterbi → frame,
//! * [`reader`] — the composed [`reader::BackscatterReader`],
//! * [`rate_adapt`] — the min-REPB rate selection logic of §6.1.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chanest;
pub mod decode;
pub mod mrc;
pub mod rate_adapt;
pub mod reader;
pub mod timeline;

pub use reader::{
    BackscatterReader, ReaderConfig, ReaderError, ReaderScratch, TagDecodeResult, TxReference,
};
pub use timeline::Timeline;
