//! Hosts repo-level integration tests (../../tests) and examples (../../examples).

#![forbid(unsafe_code)]
