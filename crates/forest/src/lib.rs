//! Random forest substrate for BehavIoT user-action models.
//!
//! §4.1/Appendix B: BehavIoT trains one *binary* Random Forest classifier
//! \[18\] per user activity over the 21 flow features of Table 8, chosen
//! because it is lightweight (deployable on a home router) and works with
//! limited training samples. At prediction time the positive classifier with
//! the highest confidence wins; if none is positive the flow is not a user
//! event. A classifier that can no longer win stops walking its trees
//! ([`RandomForest::predict_proba_reaching`]).
//!
//! This crate implements CART decision trees (Gini impurity) and bagged
//! forests with per-split feature subsampling and out-of-bag scoring, from
//! scratch.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod forest;
pub mod tree;

pub use forest::{RandomForest, RandomForestConfig};
pub use tree::{DecisionTree, MaxFeatures, NodeSpec, TreeConfig};
