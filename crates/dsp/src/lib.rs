//! Signal-processing and statistics substrate for BehavIoT.
//!
//! This crate provides the numerical building blocks used by the
//! behavior-modeling pipeline of the paper:
//!
//! * descriptive statistics over flow features ([`stats`]),
//! * a radix-2 FFT, a half-cost real-input FFT and periodogram ([`mod@fft`]),
//! * autocorrelation ([`autocorr`]),
//! * the unsupervised period-detection procedure of §4.1 combining DFT
//!   candidate extraction with autocorrelation validation ([`period`]),
//! * empirical CDFs and knee detection used by the deviation metrics of
//!   §4.3 ([`cdf`]).
//!
//! Everything here is dependency-free, deterministic and extensively
//! unit/property tested.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autocorr;
pub mod cdf;
pub mod fft;
pub mod period;
pub mod stats;

pub use cdf::Ecdf;
pub use fft::{fft, rfft, Complex, FftScratch};
pub use period::{detect_periods, DetectedPeriod, PeriodConfig, PeriodDetector};
